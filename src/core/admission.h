/**
 * @file
 * Concurrent-launch admission pipeline (the Fig 12 serving path).
 *
 * A fixed pool of worker threads drains a bounded, tenant-aware queue
 * of launch requests. Admission control is the bounded queue itself:
 * submit() blocks while the queue is full, so a burst of invocations
 * applies back-pressure instead of piling up unboundedly. Dispatch is
 * weighted deficit round robin over per-tenant sub-queues
 * (core/drr_scheduler.h) rather than global FIFO, so one flooding
 * tenant gets its weighted share of workers instead of the whole pool;
 * per-tenant queue quotas reject with a typed kQuotaExceeded, without
 * waiting for a queue slot. Every launch names a tenant whose limits
 * were installed first; submit() is the only way in, and one path
 * resolves every ticket and records how it ended (LaunchOutcome) for
 * Stats, the per-tenant sevf_service_* families and the caller alike.
 *
 * Stage overlap falls out of the concurrency model: while one launch
 * serializes through the PSP command gate (psp::TicketGate), other
 * launches run their CPU-side work (staging, hashing, pre-encryption,
 * template capture), which is exactly the PSP/CPU overlap the paper's
 * Fig 12 bottleneck analysis calls for. Identical concurrent requests
 * collapse into one template build via the cache's single-flight
 * claim, and every follower boots warm.
 *
 * Each admitted launch runs with host_threads forced to 1: the pipeline
 * spends the host's parallelism ACROSS launches; within a launch the
 * page-parallel kernels (base::ThreadPool via base::parallelFor) would
 * otherwise contend with sibling workers.
 */
#ifndef SEVF_CORE_ADMISSION_H_
#define SEVF_CORE_ADMISSION_H_

#include <condition_variable>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "core/drr_scheduler.h"
#include "core/launch.h"

namespace sevf::core {

/** How a ticket ended, recorded once by the path that resolves it. */
enum class LaunchOutcome : u8 {
    kRejected,  //!< refused before dispatch with a typed error
    kCompleted, //!< dispatched and booted
    kFailed,    //!< dispatched, then the launch failed
};

/**
 * Completion handle for one submitted launch. Single-consumer: take()
 * moves the result out; a second take() returns kInvalidState.
 */
class LaunchTicket
{
  public:
    /** Block until the launch completes, then take its result. */
    Result<LaunchResult> take();

    /** True once the result is available (take() will not block). */
    bool ready() const;

    /** Block until the ticket resolves, then say how it ended: the
     *  record the pipeline's per-tenant counters were bumped from. */
    LaunchOutcome outcome() const;

  private:
    friend class AdmissionPipeline;

    void complete(Result<LaunchResult> result, LaunchOutcome outcome);

    mutable base::Mutex mu_;
    mutable std::condition_variable done_;
    std::optional<Result<LaunchResult>> result_ SEVF_GUARDED_BY(mu_);
    LaunchOutcome outcome_ SEVF_GUARDED_BY(mu_) = LaunchOutcome::kRejected;
};

struct AdmissionConfig {
    /** Worker threads; 0 = clamp(base::hardwareThreads(), 2, 8). */
    unsigned workers = 0;
    /** Queue slots; submit() blocks while this many launches wait. */
    std::size_t queue_depth = 32;
    /**
     * Load shedding: when true, a submit() that finds the queue full
     * resolves its ticket immediately with a typed kBackpressure error
     * instead of blocking — the caller is told to retry later rather
     * than silently queueing into an overload.
     */
    bool shed_on_full = false;
};

/**
 * The pipeline. Destruction drains the queue (every submitted ticket
 * completes) before joining the workers.
 */
class AdmissionPipeline
{
  public:
    struct Stats {
        u64 submitted = 0;
        u64 completed = 0;
        u64 failed = 0;
        u64 peak_queue_depth = 0;
        /** Launches rejected with kBackpressure instead of queueing. */
        u64 shed = 0;
        /** Launches rejected with kQuotaExceeded (per-tenant cap). */
        u64 rejected_quota = 0;
    };

    explicit AdmissionPipeline(Platform &platform,
                               AdmissionConfig config = {});
    ~AdmissionPipeline();

    AdmissionPipeline(const AdmissionPipeline &) = delete;
    AdmissionPipeline &operator=(const AdmissionPipeline &) = delete;

    /**
     * Admit one launch for @p tenant; the job lands in the tenant's
     * sub-queue and competes under its ScheduleLimits. The ticket
     * always resolves: with the boot result once a worker ran it, or
     * at once with a typed rejection, decided in this order:
     *  - kNotFound: no setTenantLimits() for @p tenant (no fault check
     *    is consulted, and the metrics count it under tenant="");
     *  - kUnavailable: an injected service-enqueue fault;
     *  - kBackpressure: an injected admission fault, or a full queue
     *    under shed_on_full;
     *  - kUnavailable: the pipeline is being destroyed, or was while
     *    this submit blocked on a full queue;
     *  - kQuotaExceeded: the tenant's max_queued launches already wait,
     *    decided before any wait for a queue slot, and again when one
     *    frees.
     * Blocks only while the global queue is full and the tenant is
     * under its quota. @p request's host_threads is overridden to 1
     * (see file comment).
     */
    std::shared_ptr<LaunchTicket> submit(const std::string &tenant,
                                         StrategyKind kind,
                                         LaunchRequest request);

    /** Install/replace @p tenant's scheduling limits and register its
     *  sevf_service_* series (exports list them zero-valued). */
    void setTenantLimits(const std::string &tenant, ScheduleLimits limits);

    /** Block until the queue is empty and every worker is idle. */
    void drain();

    Stats stats() const;
    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

  private:
    struct Job {
        StrategyKind kind = StrategyKind::kStockFirecracker;
        LaunchRequest request;
        std::shared_ptr<LaunchTicket> ticket;
        /** The metric series: the tenant id, "" for an unknown one. */
        std::string tenant;
        /** Submit wall time; 0 when metrics were off at submit. */
        u64 submit_ns = 0;
    };

    /**
     * The one place a ticket resolves. Records @p outcome in Stats
     * (completed/failed) and in the tenant's sevf_service_* families,
     * then hands @p result to the ticket, outside mu_.
     */
    void resolve(Job &job, Result<LaunchResult> result,
                 LaunchOutcome outcome) SEVF_EXCLUDES(mu_);

    void workerLoop();

    Platform &platform_;
    std::size_t queue_limit_;
    bool shed_on_full_;

    mutable base::Mutex mu_;
    std::condition_variable space_; //!< queue has a free slot / stopping
    std::condition_variable work_;  //!< dispatchable job / stopping
    std::condition_variable idle_;  //!< queue empty and no job running
    DrrScheduler<Job> sched_ SEVF_GUARDED_BY(mu_);
    unsigned active_ SEVF_GUARDED_BY(mu_) = 0;
    bool stopping_ SEVF_GUARDED_BY(mu_) = false;
    Stats stats_ SEVF_GUARDED_BY(mu_);

    std::vector<std::thread> threads_;
};

} // namespace sevf::core

#endif // SEVF_CORE_ADMISSION_H_
