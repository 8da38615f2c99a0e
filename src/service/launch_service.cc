#include "service/launch_service.h"

#include <utility>

#include "cache/template_cache.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace sevf::service {

namespace {

inline constexpr const char *kSubmittedHelp =
    "Launches submitted through the launch service, per tenant";
inline constexpr const char *kCompletedHelp =
    "Launch-service launches that booted successfully, per tenant";
inline constexpr const char *kFailedHelp =
    "Launch-service launches that failed after dispatch, per tenant";
inline constexpr const char *kRejectedHelp =
    "Launch-service launches rejected before dispatch (unknown tenant, "
    "quota, shed, injected fault), per tenant";
inline constexpr const char *kLatencyHelp =
    "Submit-to-resolution wall nanoseconds, per tenant";

/** Eagerly register @p tenant's service families (zero-valued export). */
void
registerTenantMetrics(const std::string &tenant)
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Labels labels{{"tenant", tenant}};
    (void)reg.counter("sevf_service_submitted_total", kSubmittedHelp,
                      labels);
    (void)reg.counter("sevf_service_completed_total", kCompletedHelp,
                      labels);
    (void)reg.counter("sevf_service_failed_total", kFailedHelp, labels);
    (void)reg.counter("sevf_service_rejected_total", kRejectedHelp,
                      labels);
    (void)reg.histogram("sevf_service_latency_ns", kLatencyHelp,
                        obs::defaultTimeBoundsNs(), labels);
}

} // namespace

LaunchService::LaunchService(core::Platform &platform,
                             TenantRegistry &registry, ServiceConfig config)
    : platform_(platform), registry_(registry),
      pipeline_(platform, core::AdmissionConfig{config.workers,
                                                config.queue_depth,
                                                config.shed_on_full})
{
    // The series submit() counts every unregistered tenant id under.
    registerTenantMetrics(std::string());
    applyQuotas();
}

Status
LaunchService::registerTenant(const std::string &id, TenantQuota quota)
{
    Status registered = registry_.registerTenant(id, quota);
    if (!registered.isOk()) {
        return registered;
    }
    applyQuotas();
    return Status::ok();
}

void
LaunchService::applyQuotas()
{
    u64 total_share = 0;
    for (const std::string &id : registry_.ids()) {
        std::optional<TenantQuota> quota = registry_.quota(id);
        if (!quota.has_value()) {
            continue; // racing re-registration; next applyQuotas catches up
        }
        pipeline_.setTenantLimits(id, quota->scheduleLimits());
        registerTenantMetrics(id);
        total_share += quota->cache_share_bytes;
    }
    if (total_share == 0) {
        return; // no tenant bought cache bytes: keep the default budget
    }
    platform_.templateCache().setCapacityBytes(total_share);
}

std::shared_ptr<core::LaunchTicket>
LaunchService::submit(const std::string &tenant, core::StrategyKind kind,
                      core::LaunchRequest request)
{
    SEVF_SPAN("service.enqueue");
    bool known = registry_.quota(tenant).has_value();
    // Unregistered ids all count under the empty-id series, which no
    // tenant can register: caller-chosen ids never mint new series, and
    // every series keeps submitted == completed + failed + rejected.
    obs::Labels labels{{"tenant", known ? tenant : std::string()}};
    obs::Registry &reg = obs::Registry::instance();
    reg.counter("sevf_service_submitted_total", kSubmittedHelp, labels)
        .add();

    auto rejected = [&](Status error) {
        reg.counter("sevf_service_rejected_total", kRejectedHelp, labels)
            .add();
        return core::AdmissionPipeline::rejectedTicket(std::move(error));
    };

    if (!known) {
        return rejected(
            errNotFound("unknown tenant \"" + tenant + "\"" +
                        ": register it before submitting launches"));
    }
    Status admitted = fault::FaultInjector::instance().check(
        fault::FaultSite::kServiceEnqueue, "service submit: " + tenant);
    if (!admitted.isOk()) {
        return rejected(std::move(admitted));
    }

    u64 t0 = obs::wallNowNs();
    // The hook fires exactly once per ticket, on whichever thread
    // resolves it, so the per-tenant counters cannot drift from the
    // ticket outcomes (core/admission.h).
    return pipeline_.submit(
        kind, std::move(request), tenant,
        [labels, t0](const Result<core::LaunchResult> &result) {
            obs::Registry &r = obs::Registry::instance();
            if (result.isOk()) {
                r.counter("sevf_service_completed_total", kCompletedHelp,
                          labels)
                    .add();
            } else if (result.status().code() ==
                           ErrorCode::kQuotaExceeded ||
                       result.status().code() ==
                           ErrorCode::kBackpressure) {
                r.counter("sevf_service_rejected_total", kRejectedHelp,
                          labels)
                    .add();
            } else {
                r.counter("sevf_service_failed_total", kFailedHelp, labels)
                    .add();
            }
            r.histogram("sevf_service_latency_ns", kLatencyHelp,
                        obs::defaultTimeBoundsNs(), labels)
                .observe(obs::wallNowNs() - t0);
        });
}

} // namespace sevf::service
