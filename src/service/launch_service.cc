#include "service/launch_service.h"

#include <utility>

#include "cache/template_cache.h"
#include "fault/fault.h"
#include "obs/families.h"
#include "obs/span.h"

namespace sevf::service {

namespace {

/** Eagerly register @p tenant's service families (zero-valued export). */
void
registerTenantMetrics(const std::string &tenant)
{
    obs::kServiceSubmitted.metric(tenant);
    obs::kServiceCompleted.metric(tenant);
    obs::kServiceFailed.metric(tenant);
    obs::kServiceRejected.metric(tenant);
    obs::kServiceLatencyNs.metric(tenant);
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
    std::string series = known ? tenant : std::string();
    obs::kServiceSubmitted.add(series);

    auto rejected = [&](Status error) {
        obs::kServiceRejected.add(series);
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
        [series, t0](const Result<core::LaunchResult> &result) {
            if (result.isOk()) {
                obs::kServiceCompleted.add(series);
            } else if (result.status().code() ==
                           ErrorCode::kQuotaExceeded ||
                       result.status().code() ==
                           ErrorCode::kBackpressure) {
                obs::kServiceRejected.add(series);
            } else {
                obs::kServiceFailed.add(series);
            }
            obs::kServiceLatencyNs.observe(series, obs::wallNowNs() - t0);
        });
}

} // namespace sevf::service
