/**
 * @file
 * Multi-tenant launch service: the serving layer over the admission
 * pipeline and the template cache.
 *
 * A LaunchService binds three things together:
 *
 *  - a TenantRegistry (service/tenant.h) holding per-tenant quotas,
 *  - the platform's AdmissionPipeline, whose weighted-DRR scheduler is
 *    programmed from those quotas (weight, max_in_flight, max_queued),
 *  - the platform's TemplateCache, whose byte budget is the sum of
 *    registered cache shares (docs/SERVICE.md).
 *
 * submit() is the pipeline's submit under a "service.enqueue" span:
 * the pipeline rejects unknown tenants, consults the fault sites,
 * resolves every ticket, and records its outcome in the per-tenant
 * sevf_service_* families (core/admission.h). Submits for unregistered
 * ids all count under tenant="" (an id no tenant can register).
 *
 * The whole service layer stays OUTSIDE the measured TCB: it decides
 * when launches run and who pays for cache bytes, never what gets
 * measured (tools/ci.sh stage [tcb] asserts src/service/ is not
 * reachable from the attestation entry points).
 */
#ifndef SEVF_SERVICE_LAUNCH_SERVICE_H_
#define SEVF_SERVICE_LAUNCH_SERVICE_H_

#include <memory>
#include <string>

#include "core/admission.h"
#include "core/launch.h"
#include "core/platform.h"
#include "service/tenant.h"

namespace sevf::service {

/** Workers, global queue slots and shed-on-full: the pipeline's own. */
using ServiceConfig = core::AdmissionConfig;

class LaunchService
{
  public:
    /** The registry may be pre-populated; its quotas are applied to the
     *  scheduler and the cache budget immediately. */
    LaunchService(core::Platform &platform, TenantRegistry &registry,
                  ServiceConfig config = {});

    LaunchService(const LaunchService &) = delete;
    LaunchService &operator=(const LaunchService &) = delete;

    /**
     * Register @p id (or update its quota): set its scheduler limits
     * and size the cache to the registry's total share. Forwards
     * TenantRegistry's validation errors (empty id, zero weight).
     */
    Status registerTenant(const std::string &id, TenantQuota quota);

    /** Submit one launch on behalf of @p tenant; the ticket always
     *  resolves, as core::AdmissionPipeline::submit documents. */
    std::shared_ptr<core::LaunchTicket>
    submit(const std::string &tenant, core::StrategyKind kind,
           core::LaunchRequest request);

    /** Block until every admitted launch has resolved. */
    void drain() { pipeline_.drain(); }

    core::AdmissionPipeline &pipeline() { return pipeline_; }

  private:
    core::Platform &platform_;
    TenantRegistry &registry_;
    core::AdmissionPipeline pipeline_;
};

} // namespace sevf::service

#endif // SEVF_SERVICE_LAUNCH_SERVICE_H_
