#include "cache/template_cache.h"

#include <cstdio>
#include <utility>

#include "base/logging.h"
#include "cache/template_io.h"
#include "fault/fault.h"
#include "obs/span.h"

namespace sevf::cache {

u64
LaunchTemplate::byteSize() const
{
    u64 total = sizeof(LaunchTemplate);
    for (const TemplateRegion &region : plan) {
        total += sizeof(TemplateRegion) + region.name.size();
        total += region.plaintext ? region.plaintext->size() : 0;
        total += region.page_digests.size() * sizeof(crypto::Sha256Digest);
    }
    total += snapshot.byteSize();
    for (const sim::Step &step : steps) {
        total += sizeof(sim::Step) + step.phase.size() + step.label.size() +
                 step.annotation.size();
    }
    return total;
}

TemplateCache::TemplateCache()
    : hits_metric_(obs::Registry::instance().counter(
          "sevf_cache_hits_total",
          "Launch-template cache hits (warm launches)")),
      misses_metric_(obs::Registry::instance().counter(
          "sevf_cache_misses_total",
          "Launch-template cache misses (cold template builds)")),
      evictions_metric_(obs::Registry::instance().counter(
          "sevf_cache_evictions_total",
          "Launch templates evicted to fit the byte budget")),
      inserts_metric_(obs::Registry::instance().counter(
          "sevf_cache_inserts_total", "Launch templates published")),
      bytes_metric_(obs::Registry::instance().gauge(
          "sevf_cache_bytes", "Resident bytes of cached launch templates")),
      disk_errors_metric_(obs::Registry::instance().counter(
          "sevf_cache_disk_errors_total",
          "Disk-tier I/O failures (reads and writes, not misses)")),
      quarantined_metric_(obs::Registry::instance().gauge(
          "sevf_cache_disk_quarantined",
          "1 while the disk tier is quarantined (memory-only mode)")),
      poisoned_metric_(obs::Registry::instance().counter(
          "sevf_cache_poisoned_total",
          "Warm templates invalidated after failing to replay"))
{
}

void
TemplateCache::setCapacityBytes(u64 bytes)
{
    Dropped dropped;
    base::MutexLock lock(mu_);
    capacity_bytes_ = bytes;
    evictToFitLocked(dropped);
}

u64
TemplateCache::capacityBytes() const
{
    base::MutexLock lock(mu_);
    return capacity_bytes_;
}

void
TemplateCache::setDiskDir(std::string dir)
{
    base::MutexLock lock(disk_.mu);
    disk_.dir = std::move(dir);
    // Re-pointing (or re-blessing) the disk tier lifts the quarantine:
    // the operator decided the storage is healthy again.
    disk_.error_streak = 0;
    disk_.quarantined = false;
    quarantined_metric_.set(0);
}

bool
TemplateCache::diskQuarantined() const
{
    base::MutexLock lock(disk_.mu);
    return disk_.quarantined;
}

std::string
TemplateCache::diskPathFor(const std::string &key_hex) const
{
    base::MutexLock lock(disk_.mu);
    if (disk_.dir.empty() || disk_.quarantined) {
        return std::string();
    }
    return disk_.dir + "/" + key_hex + ".tmpl";
}

void
TemplateCache::noteDiskError(const Status &error)
{
    base::MutexLock lock(disk_.mu);
    disk_.errors++;
    disk_errors_metric_.add();
    disk_.error_streak++;
    if (!disk_.quarantined && disk_.error_streak >= kQuarantineStreak) {
        disk_.quarantined = true;
        disk_.quarantines++;
        quarantined_metric_.set(1);
        warn("template cache: disk tier quarantined after ",
             disk_.error_streak,
             " consecutive I/O failures (last: ", error.toString(),
             "); degrading to memory-only");
    }
}

void
TemplateCache::noteDiskOk()
{
    base::MutexLock lock(disk_.mu);
    disk_.error_streak = 0;
}

void
TemplateCache::touchLocked(Entry &entry) SEVF_REQUIRES(mu_)
{
    lru_.splice(lru_.begin(), lru_, entry.lru_it);
}

void
TemplateCache::eraseLocked(EntryMap::iterator it, Dropped &dropped)
    SEVF_REQUIRES(mu_)
{
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru_it);
    dropped.push_back(std::move(it->second.tmpl));
    entries_.erase(it);
    bytes_metric_.set(static_cast<i64>(bytes_));
}

void
TemplateCache::evictToFitLocked(Dropped &dropped) SEVF_REQUIRES(mu_)
{
    // May evict the entry just inserted when the budget is smaller than
    // one template — correct (the cache simply stays empty), and the
    // eviction tests rely on it.
    while (bytes_ > capacity_bytes_ && !lru_.empty()) {
        auto victim = entries_.find(lru_.back());
        SEVF_CHECK(victim != entries_.end());
        eraseLocked(victim, dropped);
        evictions_++;
        evictions_metric_.add();
    }
}

void
TemplateCache::insertLocked(const std::string &key_hex,
                            std::shared_ptr<const LaunchTemplate> tmpl,
                            Dropped &dropped) SEVF_REQUIRES(mu_)
{
    auto old = entries_.find(key_hex);
    if (old != entries_.end()) {
        eraseLocked(old, dropped);
    }
    Entry entry;
    entry.bytes = tmpl->byteSize();
    entry.tmpl = std::move(tmpl);
    lru_.push_front(key_hex);
    entry.lru_it = lru_.begin();
    bytes_ += entry.bytes;
    entries_.emplace(key_hex, std::move(entry));
    inserts_++;
    inserts_metric_.add();
    bytes_metric_.set(static_cast<i64>(bytes_));
    evictToFitLocked(dropped);
}

std::shared_ptr<const LaunchTemplate>
TemplateCache::loadFromDisk(const std::string &key_hex)
{
    std::string path = diskPathFor(key_hex);
    if (path.empty()) {
        return nullptr;
    }
    Status injected = fault::FaultInjector::instance().check(
        fault::FaultSite::kCacheDiskRead, path);
    if (!injected.isOk()) {
        noteDiskError(injected);
        return nullptr;
    }
    Result<std::shared_ptr<const LaunchTemplate>> loaded =
        loadTemplateFile(path);
    if (loaded.isOk()) {
        noteDiskOk();
        return loaded.take();
    }
    // Soft failure either way — the launch proceeds as a miss. But a
    // missing file is a plain miss, while an unreadable/corrupt one is
    // a disk ERROR: counted separately so operators can tell a cold
    // cache from a dying disk, and quarantined on a streak. A tampered
    // file that does decode replays to a wrong measurement and is
    // rejected at launch time (see template_io.h).
    if (loaded.status().code() != ErrorCode::kNotFound) {
        noteDiskError(loaded.status());
    }
    return nullptr;
}

void
TemplateCache::persistToDisk(const std::string &key_hex,
                             const LaunchTemplate &tmpl)
{
    std::string path = diskPathFor(key_hex);
    if (path.empty()) {
        return;
    }
    // Best effort: an unwritable disk tier degrades to memory-only,
    // with the failures counted toward the quarantine streak.
    Status injected = fault::FaultInjector::instance().check(
        fault::FaultSite::kCacheDiskWrite, path);
    if (!injected.isOk()) {
        noteDiskError(injected);
        return;
    }
    Status persisted = saveTemplateFile(path, tmpl);
    if (persisted.isOk()) {
        noteDiskOk();
    } else {
        noteDiskError(persisted);
    }
}

TemplateCache::Lookup
TemplateCache::beginLookup(const LaunchKey &key)
{
    SEVF_SPAN("cache.lookup");
    std::string key_hex = key.hex();
    {
        base::MutexLock lock(mu_);
        bool counted_wait = false;
        for (;;) {
            auto it = entries_.find(key_hex);
            if (it != entries_.end()) {
                touchLocked(it->second);
                hits_++;
                hits_metric_.add();
                return Lookup{it->second.tmpl, false};
            }
            if (building_.count(key_hex) == 0) {
                // Tentatively claim, then probe the disk tier below
                // WITHOUT the lock: followers of this key wait on the
                // claim, but lookups of other keys are not stalled
                // behind file I/O.
                building_.insert(key_hex);
                break;
            }
            // Another thread is building this exact template: wait for
            // its publish/abandon instead of duplicating a multi-second
            // build.
            if (!counted_wait) {
                single_flight_waits_++;
                counted_wait = true;
            }
            while (building_.count(key_hex) != 0) {
                build_done_.wait(lock.native());
            }
        }
    }

    std::shared_ptr<const LaunchTemplate> loaded = loadFromDisk(key_hex);
    Dropped dropped;
    base::MutexLock lock(mu_);
    if (loaded == nullptr) {
        misses_++;
        misses_metric_.add();
        return Lookup{nullptr, true};
    }
    insertLocked(key_hex, loaded, dropped);
    hits_++;
    hits_metric_.add();
    building_.erase(key_hex);
    build_done_.notify_all();
    // Serve the loaded copy directly: correct even when the entry was
    // evicted on arrival (budget below one template).
    return Lookup{loaded, false};
}

void
TemplateCache::publish(const LaunchKey &key,
                       std::shared_ptr<const LaunchTemplate> tmpl)
{
    SEVF_SPAN("cache.publish");
    std::string key_hex = key.hex();
    persistToDisk(key_hex, *tmpl);
    Dropped dropped;
    base::MutexLock lock(mu_);
    insertLocked(key_hex, std::move(tmpl), dropped);
    building_.erase(key_hex);
    build_done_.notify_all();
}

void
TemplateCache::abandon(const LaunchKey &key)
{
    std::string key_hex = key.hex();
    base::MutexLock lock(mu_);
    building_.erase(key_hex);
    build_done_.notify_all();
}

void
TemplateCache::invalidate(const LaunchKey &key)
{
    std::string key_hex = key.hex();
    // Poisoning: a template only gets invalidated after it failed to
    // replay (BootStrategy falls back to a cold boot). Counted so
    // operators can tell a one-off torn file from a poisoning storm.
    poisoned_metric_.add();
    {
        Dropped dropped;
        base::MutexLock lock(mu_);
        poisoned_++;
        auto it = entries_.find(key_hex);
        if (it != entries_.end()) {
            eraseLocked(it, dropped);
        }
    }
    std::string dir;
    {
        base::MutexLock lock(disk_.mu);
        dir = disk_.dir;
    }
    if (!dir.empty()) {
        // Best effort, like every disk-tier operation (and even while
        // quarantined: a poisoned file must not outlive the entry).
        (void)std::remove((dir + "/" + key_hex + ".tmpl").c_str());
    }
}

std::shared_ptr<const LaunchTemplate>
TemplateCache::find(const LaunchKey &key)
{
    std::string key_hex = key.hex();
    base::MutexLock lock(mu_);
    auto it = entries_.find(key_hex);
    if (it == entries_.end()) {
        return nullptr;
    }
    touchLocked(it->second);
    return it->second.tmpl;
}

void
TemplateCache::clear()
{
    EntryMap dropped;
    base::MutexLock lock(mu_);
    dropped.swap(entries_);
    lru_.clear();
    bytes_ = 0;
    bytes_metric_.set(0);
}

TemplateCache::Stats
TemplateCache::stats() const
{
    Stats s;
    {
        base::MutexLock lock(mu_);
        s.hits = hits_;
        s.misses = misses_;
        s.inserts = inserts_;
        s.evictions = evictions_;
        s.single_flight_waits = single_flight_waits_;
        s.bytes = bytes_;
        s.entries = entries_.size();
        s.poisoned = poisoned_;
    }
    {
        base::MutexLock lock(disk_.mu);
        s.disk_errors = disk_.errors;
        s.quarantined = disk_.quarantines;
    }
    return s;
}

} // namespace sevf::cache
