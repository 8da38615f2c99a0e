#include "service/launch_service.h"

#include <utility>

#include "cache/template_cache.h"
#include "obs/span.h"

namespace sevf::service {

LaunchService::LaunchService(core::Platform &platform,
                             TenantRegistry &registry, ServiceConfig config)
    : platform_(platform), registry_(registry), pipeline_(platform, config)
{
    for (const std::string &id : registry_.ids()) {
        // Already validated by the registry, so this cannot fail.
        (void)registerTenant(id, *registry_.quota(id));
    }
}

Status
LaunchService::registerTenant(const std::string &id, TenantQuota quota)
{
    Status registered = registry_.registerTenant(id, quota);
    if (!registered.isOk()) {
        return registered;
    }
    pipeline_.setTenantLimits(id, quota);
    // No tenant bought cache bytes: keep the default budget.
    if (u64 total_share = registry_.totalCacheShareBytes(); total_share != 0) {
        platform_.templateCache().setCapacityBytes(total_share);
    }
    return Status::ok();
}

std::shared_ptr<core::LaunchTicket>
LaunchService::submit(const std::string &tenant, core::StrategyKind kind,
                      core::LaunchRequest request)
{
    SEVF_SPAN("service.enqueue");
    return pipeline_.submit(tenant, kind, std::move(request));
}

} // namespace sevf::service
