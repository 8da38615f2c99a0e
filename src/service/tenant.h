/**
 * @file
 * Tenant registry: who may launch, and with what share of the host.
 *
 * A tenant is an opaque id (the serving layer's notion of a customer)
 * with a quota: a DRR weight, an in-flight cap, a queued-launch cap,
 * and a cache-byte share. The registry is the single source of truth
 * the launch service reads to (a) program the admission scheduler's
 * per-tenant limits and (b) size the template cache, whose byte budget
 * is the sum of registered shares (docs/SERVICE.md).
 *
 * Everything here stays OUTSIDE the measured TCB (ci.sh stage [tcb]):
 * quota enforcement decides only WHEN a launch runs, never what gets
 * measured — a starved or rejected tenant is a liveness concern, not
 * an integrity one (cf. the SEV-SNP interface analyses in PAPERS.md).
 */
#ifndef SEVF_SERVICE_TENANT_H_
#define SEVF_SERVICE_TENANT_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "core/drr_scheduler.h"

namespace sevf::service {

/**
 * Admission + cache entitlements for one tenant: the scheduler's
 * limits (weight, max_in_flight, max_queued; see core::ScheduleLimits)
 * plus a cache share. A zero weight is invalid here.
 */
struct TenantQuota : core::ScheduleLimits {
    /** Contribution to the template-cache byte budget. */
    u64 cache_share_bytes = 0;
};

class TenantRegistry
{
  public:
    /** Register (or re-register, updating the quota) @p id. The empty
     *  id is reserved: it labels the metrics of unknown-tenant submits. */
    Status
    registerTenant(const std::string &id, TenantQuota quota)
    {
        if (id.empty()) {
            return errInvalidArgument("tenant id must be non-empty");
        }
        if (quota.weight == 0) {
            return errInvalidArgument("tenant " + id +
                                      ": weight must be >= 1");
        }
        base::MutexLock lock(mu_);
        tenants_[id] = quota;
        return Status::ok();
    }

    std::optional<TenantQuota>
    quota(const std::string &id) const
    {
        base::MutexLock lock(mu_);
        auto it = tenants_.find(id);
        if (it == tenants_.end()) {
            return std::nullopt;
        }
        return it->second;
    }

    std::vector<std::string>
    ids() const
    {
        base::MutexLock lock(mu_);
        std::vector<std::string> out;
        out.reserve(tenants_.size());
        for (const auto &[id, quota] : tenants_) {
            out.push_back(id);
        }
        return out;
    }

    /** Sum of registered cache shares (the cache's global budget). */
    u64
    totalCacheShareBytes() const
    {
        base::MutexLock lock(mu_);
        u64 total = 0;
        for (const auto &[id, quota] : tenants_) {
            total += quota.cache_share_bytes;
        }
        return total;
    }

  private:
    mutable base::Mutex mu_;
    std::map<std::string, TenantQuota> tenants_ SEVF_GUARDED_BY(mu_);
};

} // namespace sevf::service

#endif // SEVF_SERVICE_TENANT_H_
