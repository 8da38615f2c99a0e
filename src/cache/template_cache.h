/**
 * @file
 * Content-addressed launch-template cache.
 *
 * A LaunchTemplate is everything a cold boot computes that depends only
 * on the LaunchKey: the parsed/decompressed payloads staged for
 * pre-encryption (with their per-page launch digests), the post-boot
 * memory image as a copy-on-write snapshot, the virtual-time step
 * prefix, and the final launch measurement. A cache hit replays the
 * measurement chain from the stored page digests (the PSP's premeasured
 * path) instead of re-parsing, re-decompressing, and re-hashing — the
 * per-launch work that remains is re-encrypting the staged plan with
 * the fresh VM's key and lazily materializing CoW pages.
 *
 * Concurrency: one mutex guards the entry map, the intrusive LRU list,
 * the single-flight build set and the counters, so the byte budget is
 * enforced in exact least-recently-used order. Its critical sections
 * are map and list operations only: disk-tier I/O runs outside it, and
 * templates dropped by eviction, replacement or invalidation are freed
 * after it is released. Every SEV launch command serializes on the
 * single-core PSP anyway, so the microseconds a warm lookup spends
 * under this lock do not bound serving throughput. Disk-tier health is
 * state behind its own mutex, never held together with the cache mutex
 * (tools/lock-order.txt).
 *
 * Trust story: the cache lives entirely OUTSIDE the TCB closure
 * (enforced by tools/ci.sh stage [tcb]). A corrupted template changes
 * the replayed page digests, which changes the launch measurement,
 * which the guest owner's attestation check rejects — exactly the same
 * failure mode as a malicious VMM staging wrong bytes, so caching adds
 * no new trust assumptions.
 */
#ifndef SEVF_CACHE_TEMPLATE_CACHE_H_
#define SEVF_CACHE_TEMPLATE_CACHE_H_

#include <condition_variable>
#include <list>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "cache/launch_key.h"
#include "crypto/sha256.h"
#include "memory/guest_memory.h"
#include "obs/metrics.h"
#include "sim/trace.h"

namespace sevf::cache {

/**
 * One pre-encryption plan region: the plaintext the warm path stages
 * into the fresh VM plus the per-page content digests the premeasured
 * LAUNCH_UPDATE_DATA replays into the launch-digest chain.
 */
struct TemplateRegion {
    std::string name;
    Gpa gpa = 0;
    std::shared_ptr<const ByteVec> plaintext;
    std::vector<crypto::Sha256Digest> page_digests;
};

/** Verifier work counters, mirrored into LaunchResult on a hit. */
struct TemplateVerifierStats {
    u64 pages_validated = 0;
    u64 bytes_copied = 0;
    u64 bytes_hashed = 0;
    u64 pagetable_bytes = 0;
};

/** The fully prepared launch artifact (see file comment). */
struct LaunchTemplate {
    /** Regions for the premeasured launch flow, in cold-boot order. */
    std::vector<TemplateRegion> plan;
    /** Memory image captured just before the guest tail ran. */
    memory::MemorySnapshot snapshot;
    /** Virtual-time steps of the cold boot up to the capture point. */
    std::vector<sim::Step> steps;
    /** True when @p steps already include the guest tail (capture at
     *  end of boot; the non-SEV stock path). */
    bool tail_in_steps = false;
    crypto::Sha256Digest measurement{};
    u64 pre_encrypted_bytes = 0;
    TemplateVerifierStats verifier;

    /** Approximate resident size, for LRU-by-bytes accounting. */
    u64 byteSize() const;
};

/**
 * LRU-by-bytes cache of launch templates with single-flight build
 * deduplication and optional disk persistence.
 *
 * Single-flight: the first thread to miss on a key claims the build
 * (Lookup::claimed); concurrent lookups of the same key block until it
 * calls publish() or abandon(). Distinct keys never wait on each other.
 */
class TemplateCache
{
  public:
    struct Stats {
        u64 hits = 0;
        u64 misses = 0;
        u64 inserts = 0;
        u64 evictions = 0;
        u64 single_flight_waits = 0;
        u64 bytes = 0;
        u64 entries = 0;
        /** Disk-tier I/O failures (distinct from misses: a missing file
         *  is a miss, an unreadable/unwritable one is an error). */
        u64 disk_errors = 0;
        /** Times the disk tier was quarantined (degraded to
         *  memory-only) after repeated I/O failures. */
        u64 quarantined = 0;
        /** Warm templates invalidated after failing to replay. */
        u64 poisoned = 0;
    };

    struct Lookup {
        /** Non-null on a hit. */
        std::shared_ptr<const LaunchTemplate> tmpl;
        /** True when this caller owns the build: it MUST publish() or
         *  abandon() the key, or waiters block forever. */
        bool claimed = false;
    };

    TemplateCache();
    ~TemplateCache() = default;
    TemplateCache(const TemplateCache &) = delete;
    TemplateCache &operator=(const TemplateCache &) = delete;

    /** In-memory byte budget; publishing past it evicts the
     *  least-recently-used entries until the resident bytes fit. */
    void setCapacityBytes(u64 bytes);
    u64 capacityBytes() const;

    /**
     * Enable disk persistence under @p dir (created by the caller).
     * Misses fall back to loading <dir>/<key-hex>.tmpl; publishes write
     * it. Errors are soft: a corrupt or unreadable file is a miss —
     * but counted separately (Stats::disk_errors), and after
     * kQuarantineStreak consecutive I/O failures the disk tier is
     * quarantined: the cache degrades to memory-only until setDiskDir
     * re-enables it (which also resets the quarantine).
     */
    void setDiskDir(std::string dir);

    /** Consecutive disk I/O failures that trigger quarantine. */
    static constexpr u64 kQuarantineStreak = 3;

    /** True while the disk tier is quarantined (memory-only mode). */
    bool diskQuarantined() const;

    /** Hit, or claim the single-flight build slot (see Lookup). */
    Lookup beginLookup(const LaunchKey &key);

    /** Install the template built for a claimed key and wake waiters. */
    void publish(const LaunchKey &key,
                 std::shared_ptr<const LaunchTemplate> tmpl);

    /** Release a claimed key without publishing (build failed). */
    void abandon(const LaunchKey &key);

    /**
     * Drop @p key's entry (in memory and on disk): a template that
     * failed to replay is removed so the next launch rebuilds it
     * instead of hitting the same broken entry forever.
     */
    void invalidate(const LaunchKey &key);

    /** Plain lookup: no single-flight claim, no blocking. */
    std::shared_ptr<const LaunchTemplate> find(const LaunchKey &key);

    /** Drop every in-memory entry (disk files stay). */
    void clear();

    Stats stats() const;

  private:
    /** Default in-memory budget: generous enough that tests never
     *  evict unless they ask to (--cache-bytes overrides). */
    static constexpr u64 kDefaultCapacityBytes = 2ull * kGiB;

    struct Entry {
        std::shared_ptr<const LaunchTemplate> tmpl;
        u64 bytes = 0;
        /** This entry's node in lru_ (O(1) touch/evict). */
        std::list<std::string>::iterator lru_it;
    };
    using EntryMap = std::unordered_map<std::string, Entry>;

    /**
     * Templates unlinked under mu_. Callers declare one before taking
     * the lock, so a dropped template (tens of MB) is freed after the
     * lock is released, not inside the critical section.
     */
    using Dropped = std::vector<std::shared_ptr<const LaunchTemplate>>;

    /** Disk-tier health (one disk, one streak). */
    struct DiskTier {
        mutable base::Mutex mu;
        std::string dir SEVF_GUARDED_BY(mu);
        u64 error_streak SEVF_GUARDED_BY(mu) = 0;
        bool quarantined SEVF_GUARDED_BY(mu) = false;
        u64 errors SEVF_GUARDED_BY(mu) = 0;
        u64 quarantines SEVF_GUARDED_BY(mu) = 0;
    };

    /** Stamp @p entry most-recently-used (O(1) list splice). */
    void touchLocked(Entry &entry) SEVF_REQUIRES(mu_);
    /** Unlink @p it from the map, the LRU list and the byte total. */
    void eraseLocked(EntryMap::iterator it, Dropped &dropped)
        SEVF_REQUIRES(mu_);
    /** Evict least-recently-used entries until the budget fits. */
    void evictToFitLocked(Dropped &dropped) SEVF_REQUIRES(mu_);
    /** Install (or replace) @p key_hex as most recent, then evict. */
    void insertLocked(const std::string &key_hex,
                      std::shared_ptr<const LaunchTemplate> tmpl,
                      Dropped &dropped) SEVF_REQUIRES(mu_);

    /** <dir>/<key-hex>.tmpl, or "" when disabled or quarantined. */
    std::string diskPathFor(const std::string &key_hex) const;
    std::shared_ptr<const LaunchTemplate>
    loadFromDisk(const std::string &key_hex);
    void persistToDisk(const std::string &key_hex,
                       const LaunchTemplate &tmpl);
    void noteDiskError(const Status &error);
    void noteDiskOk();

    mutable base::Mutex mu_;
    std::condition_variable build_done_;
    EntryMap entries_ SEVF_GUARDED_BY(mu_);
    /** Intrusive recency list: front = most recent, back = LRU victim.
     *  Entries hold their node iterator. */
    std::list<std::string> lru_ SEVF_GUARDED_BY(mu_);
    std::set<std::string> building_ SEVF_GUARDED_BY(mu_);
    u64 bytes_ SEVF_GUARDED_BY(mu_) = 0;
    u64 capacity_bytes_ SEVF_GUARDED_BY(mu_) = kDefaultCapacityBytes;
    u64 hits_ SEVF_GUARDED_BY(mu_) = 0;
    u64 misses_ SEVF_GUARDED_BY(mu_) = 0;
    u64 inserts_ SEVF_GUARDED_BY(mu_) = 0;
    u64 evictions_ SEVF_GUARDED_BY(mu_) = 0;
    u64 single_flight_waits_ SEVF_GUARDED_BY(mu_) = 0;
    u64 poisoned_ SEVF_GUARDED_BY(mu_) = 0;
    mutable DiskTier disk_;

    // Registered at construction so the cache_* families appear in
    // every metrics export (sevf_obscheck requires them) even before
    // the first lookup.
    obs::Counter &hits_metric_;
    obs::Counter &misses_metric_;
    obs::Counter &evictions_metric_;
    obs::Counter &inserts_metric_;
    obs::Gauge &bytes_metric_;
    obs::Counter &disk_errors_metric_;
    obs::Gauge &quarantined_metric_;
    obs::Counter &poisoned_metric_;
};

} // namespace sevf::cache

#endif // SEVF_CACHE_TEMPLATE_CACHE_H_
