/**
 * @file
 * Internal helper: accumulates BootTrace steps and mirrors them onto
 * the debug-port timeline with running virtual timestamps.
 *
 * This is also the sim-clock tap for the observability layer: every
 * charged step is reported to obs (span trace + per-kind/per-phase
 * metrics) with its virtual start time, so a Chrome trace of a launch
 * shows the exact step sequence the BootTrace records. Each builder
 * draws a fresh obs launch id at construction; strategies create one
 * builder per launch, so launch == builder here.
 */
#ifndef SEVF_CORE_TRACE_BUILDER_H_
#define SEVF_CORE_TRACE_BUILDER_H_

#include <string>

#include "obs/families.h"
#include "obs/span.h"
#include "sim/trace.h"
#include "vmm/debug_port.h"

namespace sevf::core {

class TraceBuilder
{
  public:
    explicit TraceBuilder(vmm::DebugPort &port)
        : port_(port),
          obs_launch_(obs::tracingEnabled() ? obs::newLaunchId() : 0)
    {
    }

    void
    cpu(sim::Duration d, const char *phase, std::string label)
    {
        add(sim::StepKind::kCpu, d, phase, std::move(label));
    }

    void
    psp(sim::Duration d, const char *phase, std::string label)
    {
        add(sim::StepKind::kPsp, d, phase, std::move(label));
    }

    void
    net(sim::Duration d, const char *phase, std::string label)
    {
        add(sim::StepKind::kNet, d, phase, std::move(label));
    }

    /**
     * Re-charge a step recorded by a previous launch (the template-cache
     * warm path). Advances virtual time, mirrors the debug-port
     * timeline, and reports to obs exactly like a live add(), so a
     * replayed launch produces a bit-identical BootTrace and timeline:
     * the cache saves host wall-clock, never simulated time — the PSP
     * and guest work it models still happens per-VM in reality.
     */
    void
    replay(const sim::Step &s)
    {
        sim::TimePoint start = now_;
        now_ += s.duration;
        port_.record(now_, s.label);
        observe(s.kind, s.duration, s.phase.c_str(), s.label, start);
        trace_.addStep(s);
    }

    sim::TimePoint now() const { return now_; }
    sim::BootTrace take() { return std::move(trace_); }
    /** Steps charged so far (template capture reads the prefix). */
    const sim::BootTrace &trace() const { return trace_; }

  private:
    static u64
    obsTrack(sim::StepKind kind)
    {
        switch (kind) {
        case sim::StepKind::kPsp:
            return obs::kSimPspTrack;
        case sim::StepKind::kNet:
            return obs::kSimNetTrack;
        case sim::StepKind::kCpu:
            break;
        }
        return obs::kSimCpuTrack;
    }

    void
    observe(sim::StepKind kind, sim::Duration d, const char *phase,
            const std::string &label, sim::TimePoint start)
    {
        if (obs_launch_ != 0) {
            obs::simStep(obs_launch_, obsTrack(kind), phase, label,
                         static_cast<u64>(start.ns()),
                         static_cast<u64>(d.ns()));
        }
        obs::kSimStepNs.observe(sim::stepKindName(kind),
                                static_cast<u64>(d.ns()));
        obs::kLaunchPhaseSimNs.add(phase, static_cast<u64>(d.ns()));
    }

    void
    add(sim::StepKind kind, sim::Duration d, const char *phase,
        std::string label)
    {
        sim::TimePoint start = now_;
        now_ += d;
        port_.record(now_, label);
        observe(kind, d, phase, label, start);
        trace_.add(kind, d, phase, std::move(label));
    }

    vmm::DebugPort &port_;
    sim::BootTrace trace_;
    sim::TimePoint now_;
    u64 obs_launch_ = 0;
};

} // namespace sevf::core

#endif // SEVF_CORE_TRACE_BUILDER_H_
