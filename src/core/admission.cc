#include "core/admission.h"

#include <algorithm>
#include <utility>

#include "base/parallel.h"
#include "fault/fault.h"
#include "obs/families.h"

namespace sevf::core {

namespace {

/** Eagerly register @p tenant's sevf_service_* series, so exports list
 *  them zero-valued before its first submit. */
void
registerSeries(const std::string &tenant)
{
    obs::kServiceSubmitted.metric(tenant);
    obs::kServiceCompleted.metric(tenant);
    obs::kServiceFailed.metric(tenant);
    obs::kServiceRejected.metric(tenant);
    obs::kServiceLatencyNs.metric(tenant);
}

} // namespace

Result<LaunchResult>
LaunchTicket::take()
{
    base::MutexLock lock(mu_);
    while (!result_.has_value()) {
        done_.wait(lock.native());
    }
    Result<LaunchResult> out = std::move(*result_);
    // Leave an explicit error behind: ready() stays true, but a second
    // take() must not observe the moved-from launch result.
    result_.emplace(errInvalidState("launch ticket already taken"));
    return out;
}

bool
LaunchTicket::ready() const
{
    base::MutexLock lock(mu_);
    return result_.has_value();
}

LaunchOutcome
LaunchTicket::outcome() const
{
    base::MutexLock lock(mu_);
    while (!result_.has_value()) {
        done_.wait(lock.native());
    }
    return outcome_;
}

void
LaunchTicket::complete(Result<LaunchResult> result, LaunchOutcome outcome)
{
    {
        base::MutexLock lock(mu_);
        result_.emplace(std::move(result));
        outcome_ = outcome;
    }
    done_.notify_all();
}

AdmissionPipeline::AdmissionPipeline(Platform &platform,
                                     AdmissionConfig config)
    : platform_(platform),
      queue_limit_(config.queue_depth == 0 ? 1 : config.queue_depth),
      shed_on_full_(config.shed_on_full)
{
    // Eager registration: the rejection counters and the tenant=""
    // series (every unknown id counts there) are kServeExport rows, so
    // every serve export lists them, zero-valued on fault-free runs.
    obs::kAdmissionShed.metric();
    obs::kAdmissionRejectedQuota.metric();
    registerSeries(std::string());
    unsigned n = config.workers != 0
                     ? config.workers
                     : std::clamp(base::hardwareThreads(), 2u, 8u);
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        threads_.emplace_back([this] { workerLoop(); });
    }
}

AdmissionPipeline::~AdmissionPipeline()
{
    // stopping_ is set BEFORE the drain and space_ is notified along
    // with work_: a submitter blocked on a full queue re-checks
    // stopping_ and bails with a typed error instead of waiting on a
    // notify that would never come (the ISSUE 10 shutdown race — the
    // old order drained first, so a submitter that lost the wakeup
    // race could sleep in space_.wait forever).
    {
        base::MutexLock lock(mu_);
        stopping_ = true;
    }
    space_.notify_all();
    work_.notify_all();
    drain();
    work_.notify_all();
    for (std::thread &t : threads_) {
        t.join();
    }
}

std::shared_ptr<LaunchTicket>
AdmissionPipeline::submit(const std::string &tenant, StrategyKind kind,
                          LaunchRequest request)
{
    Job job;
    job.kind = kind;
    job.request = std::move(request);
    // The pipeline spends the host's parallelism across launches.
    job.request.host_threads = 1;
    job.ticket = std::make_shared<LaunchTicket>();
    job.submit_ns = obs::metricsEnabled() ? obs::wallNowNs() : 0;
    std::shared_ptr<LaunchTicket> ticket = job.ticket;

    bool known = false;
    {
        base::MutexLock lock(mu_);
        known = sched_.hasLimits(tenant);
    }
    // Unknown ids all count under the empty series, which no tenant can
    // register: caller-chosen ids never mint new series, and every
    // series keeps submitted == completed + failed + rejected.
    if (known) {
        job.tenant = tenant;
    }
    obs::kServiceSubmitted.add(job.tenant);
    if (!known) {
        resolve(job,
                errNotFound("unknown tenant \"" + tenant + "\"" +
                            ": register it before submitting launches"),
                LaunchOutcome::kRejected);
        return ticket;
    }
    Status admitted = fault::FaultInjector::instance().check(
        fault::FaultSite::kServiceEnqueue, "service submit: " + tenant);
    if (!admitted.isOk()) {
        resolve(job, std::move(admitted), LaunchOutcome::kRejected);
        return ticket;
    }

    // Load shedding: an injected enqueue fault (deterministic tests) or
    // a full queue under shed_on_full resolves the ticket right here
    // with a typed, retryable-by-the-caller backpressure error.
    admitted = fault::FaultInjector::instance().check(
        fault::FaultSite::kAdmissionEnqueue, "launch admission");
    bool shed = !admitted.isOk();
    bool quota_rejected = false;
    bool shutting_down = false;
    u64 depth = 0;
    {
        base::MutexLock lock(mu_);
        if (!shed && shed_on_full_ && sched_.size() >= queue_limit_) {
            shed = true;
        }
        if (shed) {
            stats_.shed++;
        } else {
            // Wait for a slot only while the tenant has quota to use
            // it: an over-quota submit is refused by push() at once.
            while (sched_.size() >= queue_limit_ && !stopping_ &&
                   !sched_.atQuota(tenant)) {
                space_.wait(lock.native());
            }
            if (stopping_) {
                // Shutdown race: the pipeline is being destroyed; no
                // worker will ever pop a late enqueue, so reject the
                // ticket with a typed error instead of wedging it.
                shutting_down = true;
            } else if (sched_.push(tenant, std::move(job)) ==
                       DrrScheduler<Job>::Push::kQuotaExceeded) {
                quota_rejected = true;
                stats_.rejected_quota++;
            } else {
                depth = sched_.size();
                stats_.submitted++;
                stats_.peak_queue_depth =
                    std::max<u64>(stats_.peak_queue_depth, depth);
            }
        }
    }
    if (shed) {
        obs::kAdmissionShed.add();
        resolve(job,
                errBackpressure(
                    "admission queue full: launch shed, retry later"),
                LaunchOutcome::kRejected);
    } else if (shutting_down) {
        resolve(job,
                errUnavailable(
                    "admission pipeline shutting down: launch not admitted"),
                LaunchOutcome::kRejected);
    } else if (quota_rejected) {
        obs::kAdmissionRejectedQuota.add();
        resolve(job,
                errQuotaExceeded("tenant " + tenant +
                                 " over its queued-launch quota"),
                LaunchOutcome::kRejected);
    } else {
        work_.notify_one();
        obs::kAdmissionQueueDepth.setMax(static_cast<i64>(depth));
    }
    return ticket;
}

void
AdmissionPipeline::resolve(Job &job, Result<LaunchResult> result,
                           LaunchOutcome outcome)
{
    // Count BEFORE resolving the ticket: a consumer that took its
    // result must see it counted, in Stats and in the tenant's series.
    // Rejections were counted in Stats (shed, rejected_quota) by the
    // critical section that decided them.
    if (outcome != LaunchOutcome::kRejected) {
        base::MutexLock lock(mu_);
        stats_.completed++;
        if (outcome == LaunchOutcome::kFailed) {
            stats_.failed++;
        }
    }
    switch (outcome) {
    case LaunchOutcome::kRejected:
        obs::kServiceRejected.add(job.tenant);
        break;
    case LaunchOutcome::kCompleted:
        obs::kServiceCompleted.add(job.tenant);
        break;
    case LaunchOutcome::kFailed:
        obs::kServiceFailed.add(job.tenant);
        break;
    }
    if (job.submit_ns != 0) {
        obs::kServiceLatencyNs.observe(job.tenant,
                                       obs::wallNowNs() - job.submit_ns);
    }
    job.ticket->complete(std::move(result), outcome);
}

void
AdmissionPipeline::setTenantLimits(const std::string &tenant,
                                   ScheduleLimits limits)
{
    registerSeries(tenant);
    {
        base::MutexLock lock(mu_);
        sched_.setLimits(tenant, limits);
    }
    // A raised in-flight cap may make parked jobs dispatchable.
    work_.notify_all();
}

void
AdmissionPipeline::drain()
{
    base::MutexLock lock(mu_);
    while (!sched_.idle() || active_ != 0) {
        idle_.wait(lock.native());
    }
}

AdmissionPipeline::Stats
AdmissionPipeline::stats() const
{
    base::MutexLock lock(mu_);
    return stats_;
}

void
AdmissionPipeline::workerLoop()
{
    for (;;) {
        Job job;
        {
            base::MutexLock lock(mu_);
            for (;;) {
                // pop() is nullopt both when nothing is queued and when
                // every queued tenant sits at its in-flight cap; either
                // way a completion or an enqueue re-notifies work_.
                std::optional<Job> next = sched_.pop();
                if (next.has_value()) {
                    job = std::move(*next);
                    break;
                }
                if (stopping_ && sched_.idle()) {
                    return;
                }
                work_.wait(lock.native());
            }
            active_++;
        }
        space_.notify_one();
        if (job.submit_ns != 0) {
            obs::kAdmissionQueueWaitNs.observe(obs::wallNowNs() -
                                               job.submit_ns);
        }

        // One strategy instance per launch: the template-capture state
        // inside BootStrategy is per-launch (launch.h).
        std::unique_ptr<BootStrategy> strategy = makeStrategy(job.kind);
        Result<LaunchResult> result =
            strategy->launch(platform_, job.request);

        // Stay active until AFTER resolving: drain() must not return
        // with a ticket still pending.
        LaunchOutcome outcome = result.isOk() ? LaunchOutcome::kCompleted
                                              : LaunchOutcome::kFailed;
        resolve(job, std::move(result), outcome);
        {
            base::MutexLock lock(mu_);
            sched_.noteCompleted(job.tenant);
            active_--;
            if (sched_.idle() && active_ == 0) {
                idle_.notify_all();
            }
        }
        // The freed in-flight slot may unblock a capped tenant's job.
        work_.notify_all();
    }
}

} // namespace sevf::core
