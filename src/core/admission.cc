#include "core/admission.h"

#include <algorithm>
#include <utility>

#include "base/parallel.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace sevf::core {

namespace {

inline constexpr const char *kShedHelp =
    "Launches rejected with kBackpressure instead of queueing";
inline constexpr const char *kQuotaHelp =
    "Launches rejected with kQuotaExceeded (per-tenant quota)";

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

void
LaunchTicket::complete(Result<LaunchResult> result)
{
    {
        base::MutexLock lock(mu_);
        result_.emplace(std::move(result));
    }
    done_.notify_all();
}

AdmissionPipeline::AdmissionPipeline(Platform &platform,
                                     AdmissionConfig config)
    : platform_(platform),
      queue_limit_(config.queue_depth == 0 ? 1 : config.queue_depth),
      shed_on_full_(config.shed_on_full)
{
    // Eager registration: the rejection counters must appear
    // (zero-valued) in every export so the obscheck doc gates cover
    // them on fault-free runs.
    (void)obs::Registry::instance().counter("sevf_admission_shed_total",
                                            kShedHelp);
    (void)obs::Registry::instance().counter(
        "sevf_admission_rejected_quota_total", kQuotaHelp);
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
AdmissionPipeline::submit(StrategyKind kind, LaunchRequest request)
{
    return submit(kind, std::move(request), std::string());
}

std::shared_ptr<LaunchTicket>
AdmissionPipeline::submit(StrategyKind kind, LaunchRequest request,
                          const std::string &tenant,
                          CompletionHook on_complete)
{
    auto ticket = std::make_shared<LaunchTicket>();
    Job job;
    job.kind = kind;
    job.request = std::move(request);
    // The pipeline spends the host's parallelism across launches.
    job.request.host_threads = 1;
    job.ticket = ticket;
    job.tenant = tenant;
    // The hook is copied into the job (which the scheduler may consume
    // even on a rejected push) and kept here for the rejection paths —
    // it must fire exactly once however the ticket resolves.
    job.on_complete = on_complete;
    job.enqueue_ns = obs::metricsEnabled() ? obs::wallNowNs() : 0;
    auto reject = [&](Result<LaunchResult> error) {
        if (on_complete) {
            on_complete(error);
        }
        ticket->complete(std::move(error));
        return ticket;
    };

    // Load shedding: an injected enqueue fault (deterministic tests) or
    // a full queue under shed_on_full resolves the ticket right here
    // with a typed, retryable-by-the-caller backpressure error. The
    // ticket API is unchanged — callers always get a ticket and take()
    // its result.
    Status admitted = fault::FaultInjector::instance().check(
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
            while (sched_.size() >= queue_limit_ && !stopping_) {
                space_.wait(lock.native());
            }
            if (stopping_) {
                // Shutdown race: the pipeline is being destroyed; no
                // worker will ever pop a late enqueue, so fail the
                // ticket with a typed error instead of wedging it.
                shutting_down = true;
                // NB: not job.tenant — std::move(job) may be evaluated
                // before the first argument is read.
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
        if (obs::metricsEnabled()) {
            obs::Registry::instance()
                .counter("sevf_admission_shed_total", kShedHelp)
                .add();
        }
        return reject(errBackpressure(
            "admission queue full: launch shed, retry later"));
    }
    if (shutting_down) {
        return reject(errUnavailable(
            "admission pipeline shutting down: launch not admitted"));
    }
    if (quota_rejected) {
        if (obs::metricsEnabled()) {
            obs::Registry::instance()
                .counter("sevf_admission_rejected_quota_total", kQuotaHelp)
                .add();
        }
        return reject(errQuotaExceeded(
            "tenant " + tenant + " over its queued-launch quota"));
    }
    work_.notify_one();
    if (obs::metricsEnabled()) {
        obs::Registry::instance()
            .counter("sevf_admission_submitted_total",
                     "Launches admitted to the pipeline")
            .add();
        obs::Registry::instance()
            .gauge("sevf_admission_queue_depth",
                   "Launches waiting in the admission queue (peak)")
            .setMax(static_cast<i64>(depth));
    }
    return ticket;
}

std::shared_ptr<LaunchTicket>
AdmissionPipeline::rejectedTicket(Status error)
{
    auto ticket = std::make_shared<LaunchTicket>();
    ticket->complete(std::move(error));
    return ticket;
}

void
AdmissionPipeline::setTenantLimits(const std::string &tenant,
                                   ScheduleLimits limits)
{
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
        if (job.enqueue_ns != 0) {
            obs::Registry::instance()
                .histogram("sevf_admission_queue_wait_ns",
                           "Wall nanoseconds a launch waited for a worker",
                           obs::defaultTimeBoundsNs())
                .observe(obs::wallNowNs() - job.enqueue_ns);
        }

        // One strategy instance per launch: the template-capture state
        // inside BootStrategy is per-launch (launch.h).
        std::unique_ptr<BootStrategy> strategy = makeStrategy(job.kind);
        Result<LaunchResult> result =
            strategy->launch(platform_, job.request);

        bool ok = result.isOk();
        // Count completion BEFORE resolving the ticket (a consumer that
        // saw its result must see it counted), and stay active until
        // AFTER (drain() must not return with a ticket still pending).
        {
            base::MutexLock lock(mu_);
            stats_.completed++;
            if (!ok) {
                stats_.failed++;
            }
        }
        // Hook before resolving the ticket: once complete() runs, a
        // consumer's take() may already have moved the result out.
        if (job.on_complete) {
            job.on_complete(result);
        }
        job.ticket->complete(std::move(result));
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
        if (obs::metricsEnabled()) {
            obs::Registry::instance()
                .counter("sevf_admission_completed_total",
                         "Launches completed by the pipeline")
                .add();
        }
    }
}

} // namespace sevf::core
