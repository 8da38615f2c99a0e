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
 * Per-tenant observability rides on the pipeline's completion hook:
 * sevf_service_submitted/completed/failed/rejected_total{tenant=...}
 * counters plus a sevf_service_latency_ns{tenant=...} histogram of
 * submit-to-resolution wall time. Submits for unregistered ids all
 * count under tenant="" (an id no tenant can register). The
 * "service.enqueue" span marks each submit on the wall track. All
 * families are registered eagerly, for tenant="" at construction and
 * for each tenant when it registers, so exports list them zero-valued
 * (kServeExport rows: sevf_obscheck --service requires them).
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

struct ServiceConfig {
    /** Admission worker threads; 0 = the pipeline's default clamp. */
    unsigned workers = 0;
    /** Global admission queue slots (back-pressure bound). */
    std::size_t queue_depth = 32;
    /** Shed instead of blocking when the global queue is full. */
    bool shed_on_full = false;
};

class LaunchService
{
  public:
    /** The registry may be pre-populated; its quotas are applied to the
     *  scheduler and the cache budgets immediately. */
    LaunchService(core::Platform &platform, TenantRegistry &registry,
                  ServiceConfig config = {});

    LaunchService(const LaunchService &) = delete;
    LaunchService &operator=(const LaunchService &) = delete;

    /**
     * Register @p id (or update its quota) and re-derive the scheduler
     * limits and cache budgets. Forwards TenantRegistry's validation
     * errors (empty id, zero weight).
     */
    Status registerTenant(const std::string &id, TenantQuota quota);

    /**
     * Submit one launch on behalf of @p tenant. The ticket always
     * resolves: with the boot result, or with a typed error —
     * kNotFound (unknown tenant), kQuotaExceeded (over max_queued),
     * kBackpressure (global shed), kUnavailable (injected
     * service-enqueue fault, or shutdown). Blocks only while the
     * GLOBAL queue is full (per-tenant quota rejects immediately).
     */
    std::shared_ptr<core::LaunchTicket>
    submit(const std::string &tenant, core::StrategyKind kind,
           core::LaunchRequest request);

    /** Block until every admitted launch has resolved. */
    void drain() { pipeline_.drain(); }

    core::AdmissionPipeline &pipeline() { return pipeline_; }
    TenantRegistry &registry() { return registry_; }

  private:
    /** Push registry quotas into the scheduler and the cache budgets. */
    void applyQuotas();

    core::Platform &platform_;
    TenantRegistry &registry_;
    core::AdmissionPipeline pipeline_;
};

} // namespace sevf::service

#endif // SEVF_SERVICE_LAUNCH_SERVICE_H_
