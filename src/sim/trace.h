/**
 * @file
 * Boot traces: the timing record a single VM launch produces.
 *
 * Each launch runs its data path for real and appends Steps charging
 * virtual time. Steps carry which resource they occupy: CPU steps of
 * different VMs run in parallel, PSP steps serialize through the single
 * PSP core (sim/des.h), reproducing the Fig 12 bottleneck.
 */
#ifndef SEVF_SIM_TRACE_H_
#define SEVF_SIM_TRACE_H_

#include <string>
#include <utility>
#include <vector>

#include "base/types.h"
#include "sim/time.h"

namespace sevf::sim {

/** Which resource a step occupies. */
enum class StepKind {
    kCpu, //!< host or guest CPU work (parallel across VMs)
    kPsp, //!< a PSP command (single-served FIFO across all VMs)
    kNet, //!< network round trip (attestation); parallel
};

const char *stepKindName(StepKind kind);

/** Phase labels matching the paper's boot-time breakdowns (Figs 3, 10, 11). */
namespace phase {
inline constexpr const char *kVmm = "vmm";
inline constexpr const char *kPreEncryption = "pre_encryption";
inline constexpr const char *kFirmware = "firmware";
inline constexpr const char *kBootVerification = "boot_verification";
inline constexpr const char *kBootstrapLoader = "bootstrap_loader";
inline constexpr const char *kLinuxBoot = "linux_boot";
inline constexpr const char *kAttestation = "attestation";
} // namespace phase

/** One timed step of a boot. */
struct Step {
    StepKind kind;
    Duration duration;
    std::string phase; //!< one of sim::phase::*
    std::string label; //!< fine-grained description ("hash kernel", ...)
};

/**
 * Ordered list of steps making up one VM launch, plus helpers to
 * aggregate by phase for the breakdown figures.
 */
class BootTrace
{
  public:
    /** Append a step. */
    void
    add(StepKind kind, Duration d, std::string phase, std::string label)
    {
        steps_.push_back({kind, d, std::move(phase), std::move(label)});
    }

    /** Append an already-built step verbatim (the template-cache replay
     *  path). */
    void addStep(Step step) { steps_.push_back(std::move(step)); }

    const std::vector<Step> &steps() const { return steps_; }

    /** Sum of all step durations (uncontended single-VM boot time). */
    Duration total() const;

    /** Sum of the durations of steps in @p phase. */
    Duration phaseTotal(std::string_view phase) const;

    /** Phase names in first-appearance order. */
    std::vector<std::string> phases() const;

    /** Append all steps of @p other. */
    void append(const BootTrace &other);

  private:
    std::vector<Step> steps_;
};

} // namespace sevf::sim

#endif // SEVF_SIM_TRACE_H_
