/**
 * @file
 * Workload-trace replay: drive a LaunchService from a JSON trace and
 * report per-tenant latency and fairness.
 *
 * A trace is the serving-layer analogue of the paper's boot-time
 * experiments: instead of one launch per strategy, a recorded arrival
 * process (tenant, strategy, arrival offset) is replayed against the
 * multi-tenant admission path, which is what exposes scheduling
 * fairness and quota behavior. tools/sevf_serve.cc is the CLI driver;
 * bench/bench_service_fairness.cc builds traces programmatically.
 *
 * Trace format (parsed with the repo's own base/json parser):
 *
 *   {
 *     "tenants": [
 *       {"id": "alpha", "weight": 4, "max_in_flight": 0,
 *        "max_queued": 16, "cache_share_bytes": 67108864},
 *       ...
 *     ],
 *     "events": [
 *       {"tenant": "alpha", "strategy": "severifast", "at_us": 0},
 *       ...
 *     ],
 *     "defaults": {"scale": 0.03125}          // optional
 *   }
 *
 * Strategies use the sevf_boot CLI names: stock | qemu | direct |
 * severifast | severifast-vmlinux. Arrival offsets are microseconds
 * from replay start; replayTrace() multiplies them by a time-scale
 * knob so a recorded minutes-long trace can replay in test time (0
 * submits everything immediately, preserving order).
 */
#ifndef SEVF_SERVICE_TRACE_REPLAY_H_
#define SEVF_SERVICE_TRACE_REPLAY_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "core/launch.h"
#include "service/launch_service.h"
#include "service/tenant.h"
#include "sim/des.h"

namespace sevf::service {

/** sevf_boot CLI strategy names; kInvalidArgument on unknown ones. */
Result<core::StrategyKind> parseStrategy(const std::string &name);

/** One arrival in the trace. */
struct TraceEventSpec {
    std::string tenant;
    core::StrategyKind strategy = core::StrategyKind::kSeveriFastBz;
    /** Arrival offset from replay start, microseconds. */
    u64 at_us = 0;
    /** Artifact scale for this launch (trace default when omitted). */
    double scale = 1.0;
};

/** A parsed workload trace: tenants (with quotas) plus arrivals. */
struct WorkloadTrace {
    std::vector<std::pair<std::string, TenantQuota>> tenants;
    std::vector<TraceEventSpec> events;

    /**
     * Parse from JSON text. Validation is strict: every event must name
     * a declared tenant and a known strategy; offsets must be numbers.
     */
    static Result<WorkloadTrace> parse(const std::string &json_text);
};

/** Per-tenant replay outcome. */
struct TenantReport {
    std::string tenant;
    u64 submitted = 0;
    u64 completed = 0;
    /** Refused before dispatch with a typed error (unknown tenant,
     *  service fault, shed, quota, shutdown); the launch never ran. */
    u64 rejected = 0;
    /** Dispatched, then the launch failed (e.g. PSP retries exhausted);
     *  0 on a fault-free run. */
    u64 failed = 0;
    u64 warm_hits = 0;
    u64 p50_ns = 0;
    u64 p95_ns = 0;
    u64 max_ns = 0;
    double mean_ns = 0.0;
};

/** Whole-replay outcome. */
struct ReplayReport {
    std::vector<TenantReport> tenants;
    u64 wall_ns = 0;
    /**
     * Jain's fairness index over per-tenant mean latencies (1.0 =
     * perfectly even, 1/n = one tenant absorbs all the delay). Only
     * tenants with at least one completed launch participate.
     */
    double latency_fairness = 0.0;
    /**
     * DES-modeled completion times of every completed launch replayed
     * through the shared-PSP scheduler (sim::replayConcurrent) — the
     * virtual-time contention figure for this workload, independent of
     * how many host cores the replay box happens to have. Replaying is
     * also what derives the sevf_psp_queue_depth / sevf_psp_wait_ns
     * metric families when metrics are enabled (same contract as
     * sevf_boot's post-launch replay). Zero when nothing completed.
     */
    u64 des_mean_completion_ns = 0;
    u64 des_max_completion_ns = 0;
};

/**
 * Register the trace's tenants on @p service, replay the arrival
 * process (offsets scaled by @p time_scale), wait for every ticket,
 * and aggregate. Each ticket counts by the outcome the pipeline
 * recorded on it (core::LaunchOutcome), the same record its
 * sevf_service_* counters come from, so a report always equals the
 * metrics export. A failed launch is reported, not an error.
 */
Result<ReplayReport> replayTrace(LaunchService &service,
                                 const WorkloadTrace &trace,
                                 double time_scale = 1.0);

/** Render @p report as JSON (base/json.h writer). */
std::string reportToJson(const ReplayReport &report);

} // namespace sevf::service

#endif // SEVF_SERVICE_TRACE_REPLAY_H_
