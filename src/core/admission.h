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
 * per-tenant queue quotas reject with a typed kQuotaExceeded. The
 * legacy tenant-less submit() maps to a default tenant with no quota,
 * preserving plain-FIFO behavior for single-tenant callers.
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
#include <functional>
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

/**
 * Completion handle for one admitted launch. Single-consumer: take()
 * moves the result out; a second take() returns kInvalidState.
 */
class LaunchTicket
{
  public:
    /** Block until the launch completes, then take its result. */
    Result<LaunchResult> take();

    /** True once the result is available (take() will not block). */
    bool ready() const;

  private:
    friend class AdmissionPipeline;

    void complete(Result<LaunchResult> result);

    mutable base::Mutex mu_;
    std::condition_variable done_;
    std::optional<Result<LaunchResult>> result_ SEVF_GUARDED_BY(mu_);
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

    /** Completion hook a tenant-aware submit may attach: fires exactly
     *  once, just before the ticket resolves — on the worker thread for
     *  dispatched launches, on the submitter for shed/quota/shutdown
     *  rejections (the launch service uses it for per-tenant metrics). */
    using CompletionHook =
        std::function<void(const Result<LaunchResult> &)>;

    /**
     * Admit one launch; blocks while the queue is full (or, with
     * shed_on_full, resolves the ticket immediately with a typed
     * kBackpressure error — the injected kAdmissionEnqueue fault takes
     * the same path regardless of config). The returned ticket
     * resolves when a worker finishes the boot. @p request's
     * host_threads is overridden to 1 (see file comment).
     *
     * If the pipeline is destroyed while a submit is blocked on a full
     * queue, the ticket resolves with a typed kUnavailable error
     * instead of deadlocking (the ISSUE 10 shutdown race).
     */
    std::shared_ptr<LaunchTicket> submit(StrategyKind kind,
                                         LaunchRequest request);

    /**
     * Tenant-aware submit: the job lands in @p tenant's sub-queue and
     * competes under its ScheduleLimits. A tenant over its max_queued
     * quota gets a ticket resolved immediately with kQuotaExceeded.
     * The empty tenant id is the default (quota-less) tenant the
     * plain submit() uses.
     */
    std::shared_ptr<LaunchTicket> submit(StrategyKind kind,
                                         LaunchRequest request,
                                         const std::string &tenant,
                                         CompletionHook on_complete = {});

    /** Install/replace @p tenant's scheduling limits. */
    void setTenantLimits(const std::string &tenant, ScheduleLimits limits);

    /** A ticket pre-resolved with @p error — for callers layered above
     *  the pipeline (the launch service) that reject a launch before it
     *  reaches submit() but still owe the caller a uniform ticket. */
    static std::shared_ptr<LaunchTicket> rejectedTicket(Status error);

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
        std::string tenant;
        CompletionHook on_complete;
        u64 enqueue_ns = 0;
    };

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
