/**
 * @file
 * Weighted deficit-round-robin scheduler over per-tenant sub-queues.
 *
 * The admission pipeline's dispatch order: each tenant owns a private
 * queue, and dispatch walks an active ring giving every tenant `weight`
 * pops per round before yielding the head. With unit job cost the
 * deficit counter degenerates to a credit count, so a tenant flooding
 * its queue gets exactly its weighted share of worker slots while a
 * light tenant's sparse jobs dispatch within one round. A tenant going
 * idle -> active enters the ring at its head, so against a standing
 * backlog its first job waits only for the in-service launch. A tenant
 * whose queue a pop empties moves to the ring TAIL and leaves the ring
 * only when a later walk still finds it empty (RFC 8290's rule for new
 * flows): a closed-loop tenant that resubmits at once waits its turn
 * like a backlogged one, and only a tenant idle for a whole round
 * re-enters at the head.
 *
 * Two per-tenant admission limits ride along:
 *  - max_queued: push() refuses past it (kQuotaExceeded at the caller;
 *    atQuota() answers without pushing),
 *  - max_in_flight: pop() skips the tenant until a completion is noted.
 *
 * Deliberately NOT thread-safe: the structure is header-only plain
 * data, owned and locked by AdmissionPipeline (guarded by
 * AdmissionPipeline::mu_), which admits only tenants named by
 * setLimits() (service::TenantQuota extends ScheduleLimits).
 */
#ifndef SEVF_CORE_DRR_SCHEDULER_H_
#define SEVF_CORE_DRR_SCHEDULER_H_

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "base/types.h"

namespace sevf::core {

/** Per-tenant scheduling parameters (service::TenantQuota extends it). */
struct ScheduleLimits {
    /** Pops per round-robin round; relative share under contention. */
    u32 weight = 1;
    /** Dispatched-but-unfinished cap; 0 = unlimited. */
    u32 max_in_flight = 0;
    /** Queued-job cap enforced by push(); 0 = unlimited. */
    std::size_t max_queued = 0;
};

template <typename Job>
class DrrScheduler
{
  public:
    enum class Push {
        kOk,
        /** The tenant's max_queued quota is exhausted. */
        kQuotaExceeded,
    };

    /** Install/replace @p tenant's limits (weight applies at the next
     *  credit replenish; caps apply immediately). */
    void
    setLimits(const std::string &tenant, ScheduleLimits limits)
    {
        tenantFor(tenant).limits = limits;
    }

    /** Queue @p job for @p tenant; a refused job is left untouched. */
    template <typename J>
    Push
    push(const std::string &tenant, J &&job)
    {
        Tenant &t = tenantFor(tenant);
        if (quotaFull(t)) {
            return Push::kQuotaExceeded;
        }
        t.queue.push_back(std::forward<J>(job));
        size_++;
        if (!t.in_ring) {
            // Idle -> active: enter at the ring HEAD. A tenant that was
            // idle has consumed none of its share this round, so its
            // first job dispatches after at most the in-service launch
            // instead of behind every backlogged tenant's quantum. No
            // starvation: only a tenant that sat out a whole round is
            // off the ring (see pop()), and it rotates normally once
            // its quantum is spent.
            ring_.push_front(tenant);
            t.in_ring = true;
        }
        return Push::kOk;
    }

    /** True when push() would refuse @p tenant: its max_queued jobs
     *  already wait. */
    bool
    atQuota(const std::string &tenant) const
    {
        auto it = tenants_.find(tenant);
        return it != tenants_.end() && quotaFull(it->second);
    }

    /** True once setLimits() named @p tenant. Named hasLimits(), not
     *  contains(), for the reason idle() is not empty(). */
    bool
    hasLimits(const std::string &tenant) const
    {
        return tenants_.find(tenant) != tenants_.end();
    }

    /**
     * Next job by weighted round robin, or nullopt when every queued
     * tenant is at its in-flight cap (or nothing is queued). The caller
     * must eventually pair each pop with noteCompleted().
     */
    std::optional<Job>
    pop()
    {
        if (size_ == 0) {
            return std::nullopt;
        }
        // One full ring walk bounds the scan: a tenant seen capped or
        // empty is rotated out or dropped, never revisited this call.
        for (std::size_t scans = ring_.size(); scans > 0; --scans) {
            std::string name = std::move(ring_.front());
            ring_.pop_front();
            Tenant &t = tenants_.find(name)->second;
            if (t.queue.empty()) {
                // Still empty a whole round after its last pop: off
                // the ring, so its next push is an idle -> active edge.
                t.in_ring = false;
                t.credits = 0;
                continue;
            }
            if (t.limits.max_in_flight != 0 &&
                t.in_flight >= t.limits.max_in_flight) {
                // Capped: loses its turn (and its credits) this round.
                t.credits = 0;
                ring_.push_back(std::move(name));
                continue;
            }
            if (t.credits == 0) {
                t.credits = std::max<u32>(1, t.limits.weight);
            }
            Job job = std::move(t.queue.front());
            t.queue.pop_front();
            size_--;
            t.credits--;
            t.in_flight++;
            if (t.queue.empty()) {
                // Emptied: to the tail, still on the ring. A refill
                // before the walk comes round is no idle -> active
                // edge, so it cannot take the head again.
                t.credits = 0;
            }
            if (t.credits == 0) {
                ring_.push_back(std::move(name));
            } else {
                // Credits remain: the tenant keeps the head until its
                // quantum is spent (classic DRR burst-per-round).
                ring_.push_front(std::move(name));
            }
            return job;
        }
        return std::nullopt;
    }

    /** A launch popped for @p tenant finished (frees an in-flight slot). */
    void
    noteCompleted(const std::string &tenant)
    {
        Tenant &t = tenantFor(tenant);
        if (t.in_flight > 0) {
            t.in_flight--;
        }
    }

    std::size_t size() const { return size_; }
    /** Named idle(), not empty(): the TCB audit resolves calls by
     *  globally unique base name, and an empty() here would pull this
     *  header into the closure via every std container .empty() call
     *  TCB code makes. */
    bool idle() const { return size_ == 0; }

    /** Jobs currently queued (not in flight) for @p tenant. */
    std::size_t
    queuedFor(const std::string &tenant) const
    {
        auto it = tenants_.find(tenant);
        return it == tenants_.end() ? 0 : it->second.queue.size();
    }

    /** Jobs popped but not yet completed for @p tenant. */
    u32
    inFlightFor(const std::string &tenant) const
    {
        auto it = tenants_.find(tenant);
        return it == tenants_.end() ? 0 : it->second.in_flight;
    }

  private:
    struct Tenant {
        ScheduleLimits limits;
        std::deque<Job> queue;
        u32 credits = 0;
        u32 in_flight = 0;
        bool in_ring = false;
    };

    Tenant &
    tenantFor(const std::string &tenant)
    {
        return tenants_[tenant];
    }

    static bool
    quotaFull(const Tenant &t)
    {
        return t.limits.max_queued != 0 &&
               t.queue.size() >= t.limits.max_queued;
    }

    /** std::map for reference stability across inserts (ring entries
     *  alias tenant names, Tenant& held across push/pop bodies). */
    std::map<std::string, Tenant> tenants_;
    std::deque<std::string> ring_;
    std::size_t size_ = 0;
};

} // namespace sevf::core

#endif // SEVF_CORE_DRR_SCHEDULER_H_
