#include "core/warm_pool.h"

#include <unordered_set>

#include "crypto/sha256.h"
#include "obs/families.h"
#include "obs/span.h"

namespace sevf::core {

WarmPool::WarmPool(Platform &platform, StrategyKind kind,
                   LaunchRequest base, std::size_t capacity,
                   sim::Duration resume_cost)
    : platform_(platform),
      kind_(kind),
      base_(base),
      capacity_(capacity),
      resume_cost_(resume_cost)
{
}

Result<Invocation>
WarmPool::invoke(u64 seed)
{
    SEVF_SPAN("warm_pool.invoke");
    Invocation inv;
    bool took_warm = false;
    {
        base::MutexLock lock(mu_);
        if (idle_ > 0) {
            // Keep-alive hit: previously attested state reused by the
            // same guest owner (§7.1) - only the resume cost is paid.
            --idle_;
            ++stats_.warm_hits;
            took_warm = true;
        }
    }
    if (took_warm) {
        inv.warm = true;
        inv.startup_latency = resume_cost_;
        obs::kWarmPoolHits.add();
    } else {
        // Cold boot outside the pool lock, so concurrent cold starts
        // overlap (and dedup through the template cache).
        LaunchRequest request = base_;
        request.seed = seed;
        Result<LaunchResult> cold =
            makeStrategy(kind_)->launch(platform_, request);
        if (!cold.isOk()) {
            return cold.status();
        }
        inv.warm = false;
        inv.startup_latency = cold->bootTime();
        obs::kWarmPoolColdStarts.add();
        base::MutexLock lock(mu_);
        ++stats_.cold_starts;
        if (stats_.resident_vms < capacity_) {
            ++stats_.resident_vms;
            stats_.resident_guest_bytes += base_.vm.memory_size;
        }
    }
    // Invocation completes; its VM (old or new) becomes idle if the
    // pool has room.
    {
        base::MutexLock lock(mu_);
        if (idle_ < stats_.resident_vms) {
            ++idle_;
        }
    }
    return inv;
}

DedupStats
measureCrossVmDedup(const memory::GuestMemory &a,
                    const memory::GuestMemory &b)
{
    DedupStats stats;
    const u64 pages = std::min(a.size(), b.size()) / kPageSize;
    stats.pages_scanned = pages;

    // Hash every DRAM page of a (what a same-page-merging host sees).
    std::unordered_set<u64> a_pages;
    a_pages.reserve(pages);
    auto page_key = [](ByteSpan page) {
        crypto::Sha256Digest d = crypto::Sha256::digest(page);
        u64 key = 0;
        for (int i = 0; i < 8; ++i) {
            key = key << 8 | d[i];
        }
        return key;
    };
    for (u64 p = 0; p < pages; ++p) {
        a_pages.insert(page_key(a.raw().subspan(p * kPageSize, kPageSize)));
    }
    auto is_zero = [](ByteSpan page) {
        for (u8 byte : page) {
            if (byte != 0) {
                return false;
            }
        }
        return true;
    };
    for (u64 p = 0; p < pages; ++p) {
        ByteSpan page = b.raw().subspan(p * kPageSize, kPageSize);
        bool dedup = a_pages.contains(page_key(page));
        bool nonzero = !is_zero(page);
        stats.dedupable_pages += dedup ? 1 : 0;
        stats.nonzero_pages += nonzero ? 1 : 0;
        stats.dedupable_nonzero += (dedup && nonzero) ? 1 : 0;
    }
    return stats;
}

} // namespace sevf::core
