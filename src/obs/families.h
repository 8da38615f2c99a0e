/**
 * @file
 * Every metric family the tree exports, one row each; a site names its
 * row (FamilyOf in obs/metrics.h). sevf_obscheck compiles this table
 * for its export and doc gates, so a new row must be documented in
 * docs/OBSERVABILITY.md (a kRunbook row also in docs/RELIABILITY.md).
 */
#ifndef SEVF_OBS_FAMILIES_H_
#define SEVF_OBS_FAMILIES_H_

#include "obs/metrics.h"

namespace sevf::obs {

// X(identifier, Counter|Gauge|Histogram, name, label key, contracts, help)
#define SEVF_OBS_FAMILIES(X)                                                  \
    /* Launch (core/strategies.cc, core/trace_builder.h). */                  \
    X(kLaunchTotal, Counter, "sevf_launch_total", "strategy", kNoContract,    \
      "Completed launch attempts")                                            \
    X(kLaunchSimNs, Histogram, "sevf_launch_sim_ns", "", kNoContract,         \
      "Total simulated launch duration (attestation included)")               \
    X(kLaunchPhaseSimNs, Counter, "sevf_launch_phase_sim_ns_total", "phase",  \
      kNoContract, "Simulated nanoseconds charged per boot phase")            \
    X(kSimStepNs, Histogram, "sevf_sim_step_ns", "kind", kNoContract,         \
      "Simulated duration of one charged boot step")                          \
    X(kCowPagesMaterialized, Counter, "sevf_cow_pages_materialized_total", "", \
      kNoContract, "Copy-on-write template pages copied into DRAM on first "  \
      "touch during a warm launch")                                           \
    /* PSP device model (psp/psp.cc) and DES replay (sim/des.cc). */          \
    X(kPspCommands, Counter, "sevf_psp_commands_total", "cmd", kNoContract,   \
      "PSP launch commands issued (any outcome)")                             \
    X(kPspCommandErrors, Counter, "sevf_psp_command_errors_total", "cmd",     \
      kNoContract, "PSP launch commands the device rejected")                 \
    X(kPspGateWaitNs, Histogram, "sevf_psp_gate_wait_ns", "", kNoContract,    \
      "Wall nanoseconds a command waited for its PSP queue turn")             \
    X(kPspGateDepth, Gauge, "sevf_psp_gate_depth", "", kNoContract,           \
      "Commands queued ahead at PSP gate entry (peak)")                       \
    X(kPspWaitNs, Histogram, "sevf_psp_wait_ns", "", kNoContract,             \
      "Virtual time a PSP command spent queued behind other guests")          \
    X(kPspQueueDepth, Gauge, "sevf_psp_queue_depth", "", kBootExport,         \
      "PSP queue depth at the last sampled arrival")                          \
    X(kPspQueueDepthPeak, Gauge, "sevf_psp_queue_depth_peak", "",             \
      kNoContract, "Peak PSP queue depth over the last replay")               \
    /* Data-path kernels (obs::kernelMetrics). */                             \
    X(kKernelBytes, Counter, "sevf_kernel_bytes_total", "kernel",             \
      kBootExport, "Bytes processed by a data-path kernel")                   \
    X(kKernelWallNs, Counter, "sevf_kernel_wall_ns_total", "kernel",          \
      kBootExport, "Wall-clock nanoseconds spent inside a data-path kernel")  \
    /* Guest memory (memory/), warm pool (core/), trace log (obs/). */        \
    X(kHostWriteBytes, Counter, "sevf_guest_memory_host_write_bytes_total",   \
      "", kNoContract, "Plaintext bytes staged into guest memory by the host") \
    X(kHostWriteCalls, Counter, "sevf_guest_memory_host_write_calls_total",   \
      "", kNoContract, "hostWrite staging calls")                             \
    X(kCowPagesMapped, Counter, "sevf_cow_pages_mapped_total", "",            \
      kNoContract, "Pages mapped as copy-on-write views of a cached template") \
    X(kDramMmapFallback, Counter, "sevf_dram_mmap_fallback_total", "",        \
      kRunbook, "Guest DRAM allocations that fell back from mmap to an "      \
      "eager-zeroed heap buffer")                                             \
    X(kWarmPoolHits, Counter, "sevf_warm_pool_hits_total", "", kNoContract,   \
      "Warm-pool invocations served from an idle attested VM")                \
    X(kWarmPoolColdStarts, Counter, "sevf_warm_pool_cold_starts_total", "",   \
      kNoContract, "Warm-pool invocations that required a full launch")       \
    X(kTraceEventsDropped, Counter, "sevf_trace_events_dropped_total", "",    \
      kNoContract, "Trace events discarded because the log hit its size cap") \
    /* Launch-template cache (cache/template_cache.cc). */                    \
    X(kCacheHits, Counter, "sevf_cache_hits_total", "", kBootExport,          \
      "Launch-template cache hits (warm launches)")                           \
    X(kCacheMisses, Counter, "sevf_cache_misses_total", "", kBootExport,      \
      "Launch-template cache misses (cold template builds)")                  \
    X(kCacheEvictions, Counter, "sevf_cache_evictions_total", "",             \
      kBootExport, "Launch templates evicted to fit the byte budget")         \
    X(kCacheInserts, Counter, "sevf_cache_inserts_total", "", kBootExport,    \
      "Launch templates published")                                           \
    X(kCacheBytes, Gauge, "sevf_cache_bytes", "", kBootExport,                \
      "Resident bytes of cached launch templates")                            \
    X(kCacheDiskErrors, Counter, "sevf_cache_disk_errors_total", "",          \
      kBootExport | kRunbook,                                                 \
      "Disk-tier I/O failures (reads and writes, not misses)")                \
    X(kCacheDiskQuarantined, Gauge, "sevf_cache_disk_quarantined", "",        \
      kBootExport | kRunbook,                                                 \
      "1 while the disk tier is quarantined (memory-only mode)")              \
    X(kCachePoisoned, Counter, "sevf_cache_poisoned_total", "",               \
      kBootExport | kRunbook,                                                 \
      "Warm templates invalidated after failing to replay")                   \
    /* Admission pipeline (core/admission.cc). */                             \
    X(kAdmissionShed, Counter, "sevf_admission_shed_total", "",               \
      kServeExport | kRunbook,                                                \
      "Launches rejected with kBackpressure instead of queueing")             \
    X(kAdmissionRejectedQuota, Counter,                                       \
      "sevf_admission_rejected_quota_total", "", kServeExport | kRunbook,     \
      "Launches rejected with kQuotaExceeded (per-tenant quota)")             \
    X(kAdmissionQueueDepth, Gauge, "sevf_admission_queue_depth", "",          \
      kNoContract, "Launches waiting in the admission queue (peak)")          \
    X(kAdmissionQueueWaitNs, Histogram, "sevf_admission_queue_wait_ns", "",   \
      kNoContract, "Wall nanoseconds a launch waited for a worker")           \
    /* Launch service, per tenant (core/admission.cc: submit, resolve;        \
       the latency histogram observes every ticket). */                       \
    X(kServiceSubmitted, Counter, "sevf_service_submitted_total", "tenant",   \
      kServeExport,                                                           \
      "Launches submitted through the launch service, per tenant")            \
    X(kServiceCompleted, Counter, "sevf_service_completed_total", "tenant",   \
      kServeExport,                                                           \
      "Launch-service launches that booted successfully, per tenant")         \
    X(kServiceFailed, Counter, "sevf_service_failed_total", "tenant",         \
      kServeExport,                                                           \
      "Launch-service launches that failed after dispatch, per tenant")       \
    X(kServiceRejected, Counter, "sevf_service_rejected_total", "tenant",     \
      kServeExport,                                                           \
      "Launch-service launches rejected before dispatch (unknown tenant, "    \
      "quota, shed, injected fault), per tenant")                             \
    X(kServiceLatencyNs, Histogram, "sevf_service_latency_ns", "tenant",      \
      kServeExport, "Submit-to-resolution wall nanoseconds, per tenant")      \
    /* Fault injection and retry (fault/). */                                 \
    X(kFaultChecks, Counter, "sevf_fault_checks_total", "site",               \
      kBootExport | kRunbook, "Fault-injection site occurrences consulted")   \
    X(kFaultInjected, Counter, "sevf_fault_injected_total", "site",           \
      kBootExport | kRunbook, "Faults injected by the armed plan")            \
    X(kRetryAttempts, Counter, "sevf_retry_attempts_total", "op",             \
      kBootExport | kRunbook,                                                 \
      "Attempts spent inside retry loops (first try included)")               \
    X(kRetryBackoffNs, Counter, "sevf_retry_backoff_ns_total", "op",          \
      kBootExport | kRunbook,                                                 \
      "Virtual backoff nanoseconds charged between retries")                  \
    X(kRetryExhausted, Counter, "sevf_retry_exhausted_total", "op",           \
      kBootExport | kRunbook,                                                 \
      "Retry loops that ran out of budget on a transient error")

#define SEVF_OBS_DECLARE(id, type, name, label, contracts, help)              \
    inline constexpr type##Family id{name, label, contracts, help};
SEVF_OBS_FAMILIES(SEVF_OBS_DECLARE)
#undef SEVF_OBS_DECLARE

/** Every row above, in table order. */
inline constexpr const Family *kAllFamilies[] = {
#define SEVF_OBS_ADDRESS(id, ...) &id,
    SEVF_OBS_FAMILIES(SEVF_OBS_ADDRESS)
#undef SEVF_OBS_ADDRESS
};

} // namespace sevf::obs

#endif // SEVF_OBS_FAMILIES_H_
