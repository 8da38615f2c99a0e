/**
 * @file
 * Maps data-path operations (bytes copied, hashed, encrypted, ...) to
 * virtual-time Durations using the calibrated CostParams.
 *
 * The cost model is deliberately *stateless* about whose time it is: the
 * boot strategies charge the returned Durations to a BootTrace with the
 * right StepKind, and the DES replay (sim/des.h) decides contention.
 */
#ifndef SEVF_SIM_COST_MODEL_H_
#define SEVF_SIM_COST_MODEL_H_

#include "base/rng.h"
#include "compress/codec.h"
#include "memory/sev_mode.h"
#include "sim/cost_params.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace sevf::sim {

/** Converts byte counts to MiB for the per-MiB constants. */
double mib(u64 bytes);

/**
 * Cost model over a CostParams instance, with optional per-step jitter
 * drawn from a caller-owned deterministic Rng.
 */
class CostModel
{
  public:
    explicit CostModel(CostParams params) : p_(params) {}

    const CostParams &params() const { return p_; }

    // -- PSP operations (charge with StepKind::kPsp) --

    Duration pspLaunchStart() const;
    Duration pspLaunchStartShared() const;
    /** One LAUNCH_UPDATE_DATA command covering @p bytes (SEV-SNP). */
    Duration pspLaunchUpdate(u64 bytes) const;
    /** Mode/hugepage-aware variant: pre-SNP generations pre-encrypt
     *  faster with hugepages (S6.1). */
    Duration pspLaunchUpdate(u64 bytes, memory::SevMode mode,
                             bool hugepages) const;
    Duration pspLaunchFinish() const;
    Duration pspRmpInit() const;
    Duration pspReport() const;
    Duration qemuSessionPsp() const;

    // -- CPU operations (StepKind::kCpu) --

    Duration cpuCopy(u64 bytes) const;
    Duration cpuSha256(u64 bytes) const;
    Duration lz4Decompress(u64 decompressed_bytes) const;
    Duration gzipDecompress(u64 decompressed_bytes) const;
    /** Dispatch on codec kind. */
    Duration decompressCost(compress::CodecKind kind,
                            u64 decompressed_bytes) const;
    /** pvalidate sweep over @p mem_bytes of guest memory. */
    Duration pvalidateSweep(u64 mem_bytes, bool hugepages) const;
    Duration pageTableInit() const;
    Duration verifierFixed() const;
    Duration bootstrapFixed() const;

    // -- VMM-side --

    Duration fcProcessStart() const;
    Duration fcSetup() const;
    Duration vmmLoad(u64 bytes) const;
    Duration vmmHash(u64 bytes) const;
    Duration kvmSnpInit() const;
    Duration kvmPinPages(u64 guest_mem_bytes) const;
    Duration qemuProcessStart() const;
    Duration qemuSetup() const;

    // -- OVMF --

    Duration ovmfSec() const;
    Duration ovmfPei() const;
    Duration ovmfDxe() const;
    Duration ovmfBds() const;
    Duration ovmfVerify(u64 bytes) const;

    // -- Guest --

    /**
     * Guest kernel boot (decompressed-kernel entry to init) under SEV
     * generation @p mode, given the config's calibrated non-SEV boot
     * time (returned as is for kNone).
     */
    Duration linuxBoot(Duration base_boot, memory::SevMode mode) const;
    Duration initExec() const;

    // -- Attestation --

    Duration attestNetwork() const;
    Duration attestGuest() const;

    /**
     * Apply multiplicative Gaussian jitter (params().jitter_frac) to @p d
     * using @p rng; identity if rng is null or jitter is disabled.
     */
    Duration jittered(Duration d, Rng *rng) const;

  private:
    CostParams p_;
};

/**
 * Re-sample a nominal trace with per-step jitter. The bench harness
 * runs the functional boot once and draws many jittered samples from
 * its trace (the paper's 100-boots-per-config methodology, §6.1).
 */
BootTrace jitterTrace(const BootTrace &nominal, const CostModel &model,
                      Rng &rng);

} // namespace sevf::sim

#endif // SEVF_SIM_COST_MODEL_H_
