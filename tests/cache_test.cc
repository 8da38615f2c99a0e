/**
 * @file
 * Launch-template cache tests: key derivation, LRU-by-bytes eviction,
 * single-flight build dedup, disk persistence, copy-on-write
 * instantiation, the admission pipeline, and the core invariant - a
 * cache hit is bit-identical to the cold boot it replaces.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "cache/launch_key.h"
#include "cache/template_cache.h"
#include "cache/template_io.h"
#include "core/admission.h"
#include "core/drr_scheduler.h"
#include "core/launch.h"
#include "memory/guest_memory.h"
#include "vmm/layout.h"
#include "vmm/microvm.h"
#include "workload/synthetic.h"

namespace sevf {
namespace {

constexpr double kScale = 1.0 / 32.0;

core::LaunchRequest
smallRequest()
{
    core::LaunchRequest req;
    req.kernel = workload::KernelConfig::kAws;
    req.scale = kScale;
    req.attest = false;
    return req;
}

/** Every field of every step, not just the totals. */
void
expectTracesEqual(const sim::BootTrace &a, const sim::BootTrace &b)
{
    ASSERT_EQ(a.steps().size(), b.steps().size());
    for (std::size_t i = 0; i < a.steps().size(); ++i) {
        const sim::Step &sa = a.steps()[i];
        const sim::Step &sb = b.steps()[i];
        EXPECT_EQ(sa.kind, sb.kind) << "step " << i;
        EXPECT_EQ(sa.duration.ns(), sb.duration.ns()) << "step " << i;
        EXPECT_EQ(sa.phase, sb.phase) << "step " << i;
        EXPECT_EQ(sa.label, sb.label) << "step " << i;
        EXPECT_EQ(sa.annotation, sb.annotation) << "step " << i;
    }
    EXPECT_EQ(a.total().ns(), b.total().ns());
}

// ===================================================================
// LaunchKey derivation
// ===================================================================

class LaunchKeyTest : public ::testing::Test
{
  protected:
    LaunchKeyTest() : platform_(sim::CostParams::deterministic()) {}

    cache::LaunchKey keyFor(const core::LaunchRequest &req,
                            core::StrategyKind kind =
                                core::StrategyKind::kSeveriFastBz)
    {
        return core::buildLaunchKey(platform_, req, kind);
    }

    core::Platform platform_;
};

TEST_F(LaunchKeyTest, DeterministicAndExcludesPerLaunchKnobs)
{
    core::LaunchRequest req = smallRequest();
    cache::LaunchKey base = keyFor(req);
    EXPECT_EQ(base, keyFor(req));

    // Per-launch knobs are deliberately not key material (launch.h).
    core::LaunchRequest varied = req;
    varied.seed = 999;
    varied.attest = !req.attest;
    varied.keep_vm = true;
    varied.host_threads = 7;
    EXPECT_EQ(base, keyFor(varied));
}

TEST_F(LaunchKeyTest, EveryTemplateInputChangesTheKey)
{
    core::LaunchRequest req = smallRequest();
    cache::LaunchKey base = keyFor(req);

    {
        core::LaunchRequest r = req;
        r.vm.cmdline += " quiet";
        EXPECT_NE(base, keyFor(r)) << "cmdline";
    }
    {
        core::LaunchRequest r = req;
        r.sev_mode = memory::SevMode::kSevEs;
        EXPECT_NE(base, keyFor(r)) << "sev_mode";
    }
    {
        core::LaunchRequest r = req;
        r.scale = kScale / 2; // different kernel artifact contents
        EXPECT_NE(base, keyFor(r)) << "scale";
    }
    {
        core::LaunchRequest r = req;
        r.kernel_codec = compress::CodecKind::kNone;
        EXPECT_NE(base, keyFor(r)) << "kernel_codec";
    }
    {
        core::LaunchRequest r = req;
        r.vm.memory_size *= 2;
        EXPECT_NE(base, keyFor(r)) << "memory_size";
    }
    {
        core::LaunchRequest r = req;
        r.out_of_band_hashing = !req.out_of_band_hashing;
        EXPECT_NE(base, keyFor(r)) << "out_of_band_hashing";
    }
    EXPECT_NE(base, keyFor(req, core::StrategyKind::kSevDirectBoot))
        << "strategy";
}

TEST_F(LaunchKeyTest, CostParamsAreKeyMaterial)
{
    // The cached trace stores concrete durations, so two platforms with
    // different cost models must never share templates.
    core::Platform jittered; // default params != deterministic()
    core::LaunchRequest req = smallRequest();
    EXPECT_NE(keyFor(req),
              core::buildLaunchKey(jittered, req,
                                   core::StrategyKind::kSeveriFastBz));
}

TEST(LaunchKeyBuilderTest, DomainSeparationAndHex)
{
    cache::LaunchKeyBuilder a;
    a.addString("a", "bc");
    cache::LaunchKeyBuilder b;
    b.addString("ab", "c");
    EXPECT_NE(a.build(), b.build())
        << "field/payload concatenation must not collide";

    cache::LaunchKeyBuilder c;
    c.addString("a", "bc");
    std::string hex = c.build().hex();
    EXPECT_EQ(hex.size(), 64u);
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

// ===================================================================
// TemplateCache mechanics (no launches; synthetic templates)
// ===================================================================

cache::LaunchKey
syntheticKey(u64 n)
{
    cache::LaunchKeyBuilder kb;
    kb.addU64("test_key", n);
    return kb.build();
}

std::shared_ptr<const cache::LaunchTemplate>
syntheticTemplate(u64 payload_bytes)
{
    auto t = std::make_shared<cache::LaunchTemplate>();
    cache::TemplateRegion region;
    region.name = "payload";
    region.plaintext =
        std::make_shared<const ByteVec>(payload_bytes, u8{0xab});
    region.page_digests.resize((payload_bytes + kPageSize - 1) / kPageSize);
    t->plan.push_back(std::move(region));
    return t;
}

TEST(TemplateCacheTest, LruEvictionByBytes)
{
    cache::TemplateCache cache;
    auto tmpl = syntheticTemplate(64 * 1024);
    u64 size = tmpl->byteSize();
    ASSERT_GT(size, 0u);
    cache.setCapacityBytes(2 * size + size / 2); // holds exactly two

    cache.publish(syntheticKey(1), tmpl);
    cache.publish(syntheticKey(2), syntheticTemplate(64 * 1024));
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Touch 1 so 2 becomes least-recently-used, then overflow.
    EXPECT_NE(cache.find(syntheticKey(1)), nullptr);
    cache.publish(syntheticKey(3), syntheticTemplate(64 * 1024));

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_NE(cache.find(syntheticKey(1)), nullptr);
    EXPECT_EQ(cache.find(syntheticKey(2)), nullptr) << "LRU victim";
    EXPECT_NE(cache.find(syntheticKey(3)), nullptr);
    EXPECT_LE(cache.stats().bytes, cache.capacityBytes());
}

TEST(TemplateCacheTest, EvictionOrderSurvivesShardRewrite)
{
    // Freeze exact LRU semantics across the intrusive-list rewrite: the
    // cache evicts in access order, with both publishes and find()
    // touches counting as uses.
    cache::TemplateCache cache;
    auto size = syntheticTemplate(16 * 1024)->byteSize();
    cache.setCapacityBytes(3 * size + size / 2); // holds exactly three

    for (u64 n = 1; n <= 4; ++n) {
        cache.publish(syntheticKey(n), syntheticTemplate(16 * 1024));
    }
    // Insert order 1,2,3,4 with room for three: 1 was the LRU victim.
    EXPECT_EQ(cache.find(syntheticKey(1)), nullptr);

    // find(2) touches, so recency is now 3 < 4 < 2: the next victims
    // are 3, then 4 — 2 outlives 4 despite being inserted earlier.
    EXPECT_NE(cache.find(syntheticKey(2)), nullptr);
    cache.publish(syntheticKey(5), syntheticTemplate(16 * 1024));
    EXPECT_EQ(cache.find(syntheticKey(3)), nullptr) << "victim 3";
    cache.publish(syntheticKey(6), syntheticTemplate(16 * 1024));
    EXPECT_EQ(cache.find(syntheticKey(4)), nullptr)
        << "touch order, not insert order, decides the victim";
    EXPECT_NE(cache.find(syntheticKey(2)), nullptr);
    EXPECT_NE(cache.find(syntheticKey(5)), nullptr);
    EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(TemplateCacheTest, ManyEntryShrinkEvictsOldestFirst)
{
    // Regression for the O(n) min-scan per eviction (O(n^2) when
    // --cache-bytes shrinks a full cache): with the intrusive LRU list
    // a mass shrink walks each victim once. Correctness check: the
    // survivors are exactly the most recent keys.
    constexpr u64 kEntries = 512;
    cache::TemplateCache cache;
    auto size = syntheticTemplate(1024)->byteSize();
    cache.setCapacityBytes(kEntries * size * 2);
    for (u64 n = 0; n < kEntries; ++n) {
        cache.publish(syntheticKey(n), syntheticTemplate(1024));
    }
    ASSERT_EQ(cache.stats().entries, kEntries);
    ASSERT_EQ(cache.stats().evictions, 0u);

    cache.setCapacityBytes(4 * size + size / 2); // keep exactly four
    cache::TemplateCache::Stats shrunk = cache.stats();
    EXPECT_EQ(shrunk.entries, 4u);
    EXPECT_EQ(shrunk.evictions, kEntries - 4);
    EXPECT_LE(shrunk.bytes, cache.capacityBytes());
    for (u64 n = 0; n < kEntries; ++n) {
        if (n < kEntries - 4) {
            EXPECT_EQ(cache.find(syntheticKey(n)), nullptr) << n;
        } else {
            EXPECT_NE(cache.find(syntheticKey(n)), nullptr) << n;
        }
    }
}

TEST(TemplateCacheTest, ShardedLookupsKeepGlobalLruAndSingleFlight)
{
    cache::TemplateCache cache;

    cache::TemplateCache::Lookup miss = cache.beginLookup(syntheticKey(1));
    EXPECT_TRUE(miss.claimed);
    cache.publish(syntheticKey(1), syntheticTemplate(kPageSize));
    cache::TemplateCache::Lookup hit = cache.beginLookup(syntheticKey(1));
    EXPECT_FALSE(hit.claimed);
    EXPECT_NE(hit.tmpl, nullptr);

    // Concurrent distinct-key lookups: no deadlock, every claim
    // resolves (exercises the cache lock under TSan).
    constexpr int kThreads = 4;
    constexpr u64 kKeysPerThread = 32;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&cache, t] {
            for (u64 n = 0; n < kKeysPerThread; ++n) {
                u64 id = 100 + static_cast<u64>(t) * kKeysPerThread + n;
                cache::TemplateCache::Lookup l =
                    cache.beginLookup(syntheticKey(id));
                if (l.claimed) {
                    cache.publish(syntheticKey(id),
                                  syntheticTemplate(1024));
                } else {
                    ASSERT_NE(l.tmpl, nullptr);
                }
                (void)cache.find(syntheticKey(id));
            }
        });
    }
    for (std::thread &w : workers) {
        w.join();
    }
    cache::TemplateCache::Stats s = cache.stats();
    EXPECT_EQ(s.inserts, 1 + kThreads * kKeysPerThread);
    EXPECT_EQ(s.entries, 1 + kThreads * kKeysPerThread);
}

TEST(TemplateCacheTest, SingleFlightFollowerWaitsForPublish)
{
    cache::TemplateCache cache;
    cache::LaunchKey key = syntheticKey(42);

    cache::TemplateCache::Lookup leader = cache.beginLookup(key);
    ASSERT_EQ(leader.tmpl, nullptr);
    ASSERT_TRUE(leader.claimed);

    cache::TemplateCache::Lookup follower;
    std::thread waiter([&] { follower = cache.beginLookup(key); });
    // Publish only once the follower is observably blocked on the
    // build, so the wait path (not a plain hit) is what's exercised.
    while (cache.stats().single_flight_waits == 0) {
        std::this_thread::yield();
    }
    cache.publish(key, syntheticTemplate(kPageSize));
    waiter.join();

    EXPECT_NE(follower.tmpl, nullptr) << "follower sees the build";
    EXPECT_FALSE(follower.claimed);
    EXPECT_GE(cache.stats().single_flight_waits, 1u);
    EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(TemplateCacheTest, AbandonReleasesTheClaim)
{
    cache::TemplateCache cache;
    cache::LaunchKey key = syntheticKey(7);

    ASSERT_TRUE(cache.beginLookup(key).claimed);
    cache.abandon(key);

    // The failed build must not wedge the key: the next miss claims.
    cache::TemplateCache::Lookup retry = cache.beginLookup(key);
    EXPECT_EQ(retry.tmpl, nullptr);
    EXPECT_TRUE(retry.claimed);
    cache.abandon(key);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(TemplateCacheTest, InvalidateDropsEntryAndDiskFile)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "sevf_cache_inval_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    cache::TemplateCache cache;
    cache.setDiskDir(dir.string());
    cache::LaunchKey key = syntheticKey(3);
    cache.publish(key, syntheticTemplate(kPageSize));
    ASSERT_NE(cache.find(key), nullptr);
    ASSERT_FALSE(std::filesystem::is_empty(dir));

    cache.invalidate(key);
    EXPECT_EQ(cache.find(key), nullptr);
    EXPECT_TRUE(std::filesystem::is_empty(dir))
        << "invalidate must also drop the persisted entry";
    std::filesystem::remove_all(dir);
}

// ===================================================================
// Hit-vs-cold bit-identity (the acceptance invariant)
// ===================================================================

TEST(CacheHitTest, HitIsBitIdenticalToColdForEveryStrategy)
{
    constexpr core::StrategyKind kKinds[] = {
        core::StrategyKind::kStockFirecracker,
        core::StrategyKind::kQemuOvmfSev,
        core::StrategyKind::kSevDirectBoot,
        core::StrategyKind::kSeveriFastBz,
        core::StrategyKind::kSeveriFastVmlinux,
    };
    for (core::StrategyKind kind : kKinds) {
        SCOPED_TRACE(core::strategyName(kind));
        core::Platform platform(sim::CostParams::deterministic());
        core::LaunchRequest req = smallRequest();

        Result<core::LaunchResult> cold =
            core::makeStrategy(kind)->launch(platform, req);
        ASSERT_TRUE(cold.isOk()) << cold.status().toString();
        EXPECT_FALSE(cold->cache_hit);

        Result<core::LaunchResult> hit =
            core::makeStrategy(kind)->launch(platform, req);
        ASSERT_TRUE(hit.isOk()) << hit.status().toString();
        EXPECT_TRUE(hit->cache_hit);

        // Same measurement as an uncached boot on a fresh platform too,
        // so the replayed chain matches reality, not just itself.
        core::Platform fresh(sim::CostParams::deterministic());
        core::LaunchRequest no_cache = req;
        no_cache.use_template_cache = false;
        Result<core::LaunchResult> reference =
            core::makeStrategy(kind)->launch(fresh, no_cache);
        ASSERT_TRUE(reference.isOk());
        EXPECT_FALSE(reference->cache_hit);

        EXPECT_EQ(hit->measurement, cold->measurement);
        EXPECT_EQ(hit->measurement, reference->measurement);
        expectTracesEqual(hit->trace, cold->trace);
        EXPECT_EQ(hit->pre_encrypted_bytes, cold->pre_encrypted_bytes);
        EXPECT_EQ(hit->verifier_stats.pages_validated,
                  cold->verifier_stats.pages_validated);
        EXPECT_EQ(hit->verifier_stats.bytes_hashed,
                  cold->verifier_stats.bytes_hashed);
    }
}

TEST(CacheHitTest, AttestedTailRunsLiveOnAHit)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::LaunchRequest req = smallRequest();
    req.attest = true;

    Result<core::LaunchResult> cold =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, req);
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();
    ASSERT_TRUE(cold->attested);

    Result<core::LaunchResult> hit =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, req);
    ASSERT_TRUE(hit.isOk()) << hit.status().toString();
    EXPECT_TRUE(hit->cache_hit);
    EXPECT_TRUE(hit->attested)
        << "secret provisioning must not be served from the cache";
    EXPECT_EQ(hit->provisioned_secret_bytes,
              cold->provisioned_secret_bytes);
    EXPECT_EQ(hit->measurement, cold->measurement);
}

TEST(CacheHitTest, KaslrLaunchesAlwaysBootCold)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::LaunchRequest req = smallRequest();
    req.guest_kaslr = true;
    for (int i = 0; i < 2; ++i) {
        Result<core::LaunchResult> run =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, req);
        ASSERT_TRUE(run.isOk());
        EXPECT_FALSE(run->cache_hit) << "per-launch entropy by design";
    }
    EXPECT_EQ(platform.templateCache().stats().hits, 0u);
}

/** True when the page at @p gpa lies inside one of @p ranges. */
bool
pageIn(Gpa gpa, const std::vector<memory::GpaRange> &ranges)
{
    for (const memory::GpaRange &r : ranges) {
        if (gpa >= r.begin && gpa < r.end) {
            return true;
        }
    }
    return false;
}

/**
 * The pages launchFromTemplate stages afresh on every launch, which the
 * snapshot leaves out: the plan regions and the VMSAs.
 */
std::vector<memory::GpaRange>
stagedPerLaunch(const cache::LaunchTemplate &t,
                const core::LaunchRequest &req, memory::SevMode mode)
{
    std::vector<memory::GpaRange> staged;
    for (const cache::TemplateRegion &r : t.plan) {
        staged.push_back({alignDown(r.gpa, kPageSize),
                          alignUp(r.gpa + r.plaintext->size(), kPageSize)});
    }
    if (memory::hasEncryptedState(mode)) {
        staged.push_back({vmm::layout::kVmsaGpa,
                          vmm::layout::kVmsaGpa +
                              u64{req.vm.vcpus} * kPageSize});
    }
    return staged;
}

TEST(CacheHitTest, WarmVmMatchesColdVmPageByPage)
{
    // The restore writes the RMP in ranges and maps segments as views;
    // the VM it yields must hold what the cold boot left behind.
    constexpr core::StrategyKind kKinds[] = {
        core::StrategyKind::kStockFirecracker,
        core::StrategyKind::kQemuOvmfSev,
        core::StrategyKind::kSevDirectBoot,
        core::StrategyKind::kSeveriFastBz,
        core::StrategyKind::kSeveriFastVmlinux,
    };
    for (core::StrategyKind kind : kKinds) {
        SCOPED_TRACE(core::strategyName(kind));
        core::Platform platform(sim::CostParams::deterministic());
        core::LaunchRequest req = smallRequest();
        req.keep_vm = true;
        Result<core::LaunchResult> cold =
            core::makeStrategy(kind)->launch(platform, req);
        ASSERT_TRUE(cold.isOk()) << cold.status().toString();
        Result<core::LaunchResult> warm =
            core::makeStrategy(kind)->launch(platform, req);
        ASSERT_TRUE(warm.isOk()) << warm.status().toString();
        ASSERT_TRUE(warm->cache_hit);
        std::shared_ptr<const cache::LaunchTemplate> tmpl =
            platform.templateCache().find(
                core::buildLaunchKey(platform, req, kind));
        ASSERT_NE(tmpl, nullptr);

        memory::GuestMemory &c = cold->vm->memory();
        memory::GuestMemory &w = warm->vm->memory();
        ASSERT_EQ(c.size(), w.size());
        ASSERT_NE(c.spaBase(), w.spaBase());
        const std::vector<memory::GpaRange> staged =
            stagedPerLaunch(*tmpl, req, c.sevMode());
        u64 compared = 0;
        u64 private_pages = 0;
        u64 validated = 0;
        std::vector<Gpa> rmp_diff;
        std::vector<Gpa> byte_diff;
        for (Gpa gpa = 0; gpa < c.size(); gpa += kPageSize) {
            if (pageIn(gpa, staged)) {
                continue;
            }
            ++compared;
            const memory::RmpEntry &ce = c.rmp().entryAt(c.spaOf(gpa));
            const memory::RmpEntry &we = w.rmp().entryAt(w.spaOf(gpa));
            bool same_rmp =
                ce.assigned == we.assigned && ce.validated == we.validated &&
                ce.immutable == we.immutable && ce.gpa == we.gpa &&
                ce.asid == (ce.assigned ? c.asid() : 0) &&
                we.asid == (we.assigned ? w.asid() : 0);
            if (!same_rmp) {
                rmp_diff.push_back(gpa);
            }
            validated += ce.validated ? 1 : 0;

            bool priv = c.sevEnabled() &&
                        (c.pageLabel(gpa) & taint::kGuestData) != taint::kNone;
            private_pages += priv ? 1 : 0;
            Result<ByteVec> cb = priv ? c.guestRead(gpa, kPageSize, true)
                                      : c.hostRead(gpa, kPageSize);
            Result<ByteVec> wb = priv ? w.guestRead(gpa, kPageSize, true)
                                      : w.hostRead(gpa, kPageSize);
            if (!cb.isOk() || !wb.isOk() || *cb != *wb ||
                c.pageLabel(gpa) != w.pageLabel(gpa)) {
                byte_diff.push_back(gpa);
            }
        }
        EXPECT_GT(compared, 0u);
        if (kind != core::StrategyKind::kStockFirecracker) {
            EXPECT_GT(private_pages, 0u);
            EXPECT_GT(validated, 0u);
        }
        EXPECT_TRUE(rmp_diff.empty())
            << rmp_diff.size() << " RMP entries differ, first at gpa 0x"
            << std::hex << rmp_diff.front();
        EXPECT_TRUE(byte_diff.empty())
            << byte_diff.size() << " pages differ, first at gpa 0x"
            << std::hex << byte_diff.front();
    }
}

/** Put @p forged in the cache under @p key, replacing what is there. */
void
replaceTemplate(core::Platform &platform, const cache::LaunchKey &key,
                std::shared_ptr<const cache::LaunchTemplate> forged)
{
    platform.templateCache().invalidate(key);
    cache::TemplateCache::Lookup claim =
        platform.templateCache().beginLookup(key);
    ASSERT_TRUE(claim.claimed);
    platform.templateCache().publish(key, std::move(forged));
}

/** One way a forged template file can bend a captured snapshot. */
struct SnapshotForgery {
    const char *name;
    void (*apply)(memory::MemorySnapshot &snap);
};

const SnapshotForgery kForgeries[] = {
    {"duplicated segment",
     [](memory::MemorySnapshot &snap) {
         snap.segments.push_back(snap.segments.front());
     }},
    {"segment moved over another",
     [](memory::MemorySnapshot &snap) {
         memory::SnapshotSegment seg = snap.segments.back();
         seg.gpa = snap.segments.front().gpa;
         snap.segments.push_back(seg);
     }},
    {"unaligned segment",
     [](memory::MemorySnapshot &snap) { snap.segments.front().gpa += 8; }},
    {"segment past memory_size",
     [](memory::MemorySnapshot &snap) {
         memory::SnapshotSegment seg = snap.segments.front();
         seg.bytes = std::make_shared<const ByteVec>(2 * kPageSize, u8{1});
         seg.gpa = snap.memory_size - kPageSize;
         snap.segments.push_back(seg);
     }},
    {"inverted validated range",
     [](memory::MemorySnapshot &snap) {
         std::swap(snap.validated.front().begin, snap.validated.front().end);
     }},
    {"unaligned validated range",
     [](memory::MemorySnapshot &snap) { snap.validated.front().end += 8; }},
    {"validated range past the RMP",
     [](memory::MemorySnapshot &snap) {
         snap.validated.back().end = snap.memory_size + kPageSize;
     }},
};

TEST(CacheHitTest, ForgedSnapshotFallsBackToColdBoot)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::LaunchRequest req = smallRequest();
    constexpr core::StrategyKind kKind = core::StrategyKind::kSeveriFastBz;
    Result<core::LaunchResult> cold =
        core::makeStrategy(kKind)->launch(platform, req);
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();
    const cache::LaunchKey key = core::buildLaunchKey(platform, req, kKind);
    std::shared_ptr<const cache::LaunchTemplate> good =
        platform.templateCache().find(key);
    ASSERT_NE(good, nullptr);
    ASSERT_FALSE(good->snapshot.segments.empty());
    ASSERT_FALSE(good->snapshot.validated.empty());

    for (const SnapshotForgery &forgery : kForgeries) {
        SCOPED_TRACE(forgery.name);
        auto forged = std::make_shared<cache::LaunchTemplate>(*good);
        forgery.apply(forged->snapshot);
        replaceTemplate(platform, key, forged);
        u64 poisoned = platform.templateCache().stats().poisoned;

        Result<core::LaunchResult> run =
            core::makeStrategy(kKind)->launch(platform, req);
        ASSERT_TRUE(run.isOk()) << run.status().toString();
        EXPECT_FALSE(run->cache_hit) << "a forged snapshot must not restore";
        EXPECT_EQ(run->measurement, cold->measurement);
        EXPECT_EQ(platform.templateCache().stats().poisoned, poisoned + 1);
    }
}

// ===================================================================
// Disk persistence
// ===================================================================

class DiskCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               "sevf_cache_disk_test";
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(DiskCacheTest, TemplateSurvivesAcrossPlatforms)
{
    core::LaunchRequest req = smallRequest();
    crypto::Sha256Digest cold_measurement;
    {
        core::Platform platform(sim::CostParams::deterministic());
        platform.templateCache().setDiskDir(dir_.string());
        Result<core::LaunchResult> cold =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, req);
        ASSERT_TRUE(cold.isOk()) << cold.status().toString();
        cold_measurement = cold->measurement;
        ASSERT_FALSE(std::filesystem::is_empty(dir_));
    }

    // A fresh platform (fresh in-memory cache) hits from disk.
    core::Platform platform(sim::CostParams::deterministic());
    platform.templateCache().setDiskDir(dir_.string());
    Result<core::LaunchResult> warm =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, req);
    ASSERT_TRUE(warm.isOk()) << warm.status().toString();
    EXPECT_TRUE(warm->cache_hit);
    EXPECT_EQ(warm->measurement, cold_measurement);
}

TEST_F(DiskCacheTest, CorruptEntryFallsBackToColdBoot)
{
    core::LaunchRequest req = smallRequest();
    crypto::Sha256Digest cold_measurement;
    {
        core::Platform platform(sim::CostParams::deterministic());
        platform.templateCache().setDiskDir(dir_.string());
        Result<core::LaunchResult> cold =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, req);
        ASSERT_TRUE(cold.isOk());
        cold_measurement = cold->measurement;
    }

    // Flip bytes in the middle of every persisted template.
    for (const auto &entry : std::filesystem::directory_iterator(dir_)) {
        std::fstream f(entry.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(entry.path()) / 2));
        const char garbage[8] = {'\x5a', '\x5a', '\x5a', '\x5a',
                                 '\x5a', '\x5a', '\x5a', '\x5a'};
        f.write(garbage, sizeof garbage);
    }

    core::Platform platform(sim::CostParams::deterministic());
    platform.templateCache().setDiskDir(dir_.string());
    Result<core::LaunchResult> run =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, req);
    ASSERT_TRUE(run.isOk())
        << "corruption must degrade to a cold boot, not an error: "
        << run.status().toString();
    EXPECT_FALSE(run->cache_hit);
    EXPECT_EQ(run->measurement, cold_measurement);
}

TEST_F(DiskCacheTest, TornEntryIsCountedRepairedAndRecovered)
{
    // A partial write (host crash mid-persist) leaves a truncated file:
    // the SHA-256 trailer no longer matches, so the load must fail as a
    // counted disk ERROR (not a silent miss), the launch must fall back
    // cold with the identical measurement, and the re-publish must
    // repair the entry so the next platform warm-hits again.
    core::LaunchRequest req = smallRequest();
    crypto::Sha256Digest cold_measurement;
    {
        core::Platform platform(sim::CostParams::deterministic());
        platform.templateCache().setDiskDir(dir_.string());
        Result<core::LaunchResult> cold =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, req);
        ASSERT_TRUE(cold.isOk());
        cold_measurement = cold->measurement;
    }

    for (const auto &entry : std::filesystem::directory_iterator(dir_)) {
        std::filesystem::resize_file(
            entry.path(), std::filesystem::file_size(entry.path()) / 2);
    }

    {
        core::Platform platform(sim::CostParams::deterministic());
        platform.templateCache().setDiskDir(dir_.string());
        Result<core::LaunchResult> run =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, req);
        ASSERT_TRUE(run.isOk()) << run.status().toString();
        EXPECT_FALSE(run->cache_hit);
        EXPECT_EQ(run->measurement, cold_measurement);
        cache::TemplateCache::Stats stats =
            platform.templateCache().stats();
        EXPECT_GE(stats.disk_errors, 1u)
            << "a torn file is an I/O error, not a plain miss";
        EXPECT_EQ(stats.quarantined, 0u)
            << "one bad file must not quarantine the tier";
    }

    // The cold fallback re-published over the torn file: recovered.
    core::Platform platform(sim::CostParams::deterministic());
    platform.templateCache().setDiskDir(dir_.string());
    Result<core::LaunchResult> warm =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, req);
    ASSERT_TRUE(warm.isOk());
    EXPECT_TRUE(warm->cache_hit);
    EXPECT_EQ(warm->measurement, cold_measurement);
    EXPECT_EQ(platform.templateCache().stats().disk_errors, 0u);
}

// ===================================================================
// Forged template files
// ===================================================================

/**
 * Decode an empty template whose u32 count @p from_end bytes before the
 * trailer is set to 0xFFFFFFFF, re-sealed with a valid SHA-256 trailer.
 * The trailer is unkeyed, so anyone who can write the cache directory
 * can produce this ~140-byte file. An empty template's body ends in:
 * plan count, memory size (u64), segment count, validated-range count,
 * step count; patching the memory size instead would decode fine, so
 * a wrong offset fails the test.
 */
Status
decodeForgedCount(std::size_t from_end)
{
    ByteVec file = cache::serializeTemplate(cache::LaunchTemplate{});
    // Drop the trailer. erase, not resize: under -DSEVF_SANITIZE=address
    // GCC 12 flags resize's never-taken growth path with a bogus
    // -Wstringop-overflow bound.
    file.erase(file.end() - 32, file.end());
    std::fill_n(file.end() - static_cast<std::ptrdiff_t>(from_end), 4,
                u8{0xff});
    crypto::Sha256Digest trailer = crypto::Sha256::digest(file);
    file.insert(file.end(), trailer.begin(), trailer.end());
    return cache::deserializeTemplate(file).status();
}

TEST(TemplateIoTest, ForgedPlanCountIsCorrupt)
{
    EXPECT_EQ(decodeForgedCount(24).code(), ErrorCode::kCorrupted);
}

TEST(TemplateIoTest, ForgedSegmentCountIsCorrupt)
{
    EXPECT_EQ(decodeForgedCount(12).code(), ErrorCode::kCorrupted);
}

TEST(TemplateIoTest, ForgedRangeCountIsCorrupt)
{
    EXPECT_EQ(decodeForgedCount(8).code(), ErrorCode::kCorrupted);
}

TEST(TemplateIoTest, ForgedStepCountIsCorrupt)
{
    EXPECT_EQ(decodeForgedCount(4).code(), ErrorCode::kCorrupted);
}

// ===================================================================
// Copy-on-write instantiation (memory tier of a hit)
// ===================================================================

TEST(CowTest, PagesMaterializeLazilyOnFirstTouch)
{
    memory::GuestMemory mem(8 * kPageSize, 0x100000000ull, /*asid=*/0);
    auto data = std::make_shared<const ByteVec>(2 * kPageSize, u8{0x7e});
    ASSERT_TRUE(mem.mapCowPages(0, data, /*encrypted=*/false).isOk());
    EXPECT_EQ(mem.cowPageCount(), 2u);
    EXPECT_EQ(mem.cowMaterializedCount(), 0u);

    // Touching one page materializes exactly that page.
    Result<ByteVec> page = mem.hostRead(0, kPageSize);
    ASSERT_TRUE(page.isOk());
    EXPECT_EQ((*page)[0], 0x7e);
    EXPECT_EQ(mem.cowMaterializedCount(), 1u);
    EXPECT_EQ(mem.cowPageCount(), 1u);

    // Unmapped pages are untouched zero DRAM.
    Result<ByteVec> zero = mem.hostRead(4 * kPageSize, kPageSize);
    ASSERT_TRUE(zero.isOk());
    EXPECT_EQ((*zero)[0], 0);
    EXPECT_EQ(mem.cowMaterializedCount(), 1u);
}

TEST(CowTest, RawViewMaterializesEverything)
{
    memory::GuestMemory mem(8 * kPageSize, 0x100000000ull, /*asid=*/0);
    auto data = std::make_shared<const ByteVec>(3 * kPageSize, u8{0x11});
    ASSERT_TRUE(mem.mapCowPages(kPageSize, data, false).isOk());
    ByteSpan raw = mem.raw();
    EXPECT_EQ(mem.cowPageCount(), 0u);
    EXPECT_EQ(mem.cowMaterializedCount(), 3u);
    EXPECT_EQ(raw[kPageSize], 0x11);
    EXPECT_EQ(raw[0], 0);
}

TEST(CowTest, PartialLastPageReadsZeroPadded)
{
    memory::GuestMemory mem(8 * kPageSize, 0x100000000ull, /*asid=*/0);
    mem.hostWriteUnchecked(3 * kPageSize, ByteVec(kPageSize, u8{0xee}));
    auto data = std::make_shared<const ByteVec>(kPageSize + 100, u8{0x5c});
    ASSERT_TRUE(mem.mapCowPages(2 * kPageSize, data, false).isOk());
    EXPECT_EQ(mem.cowPageCount(), 2u);
    Result<ByteVec> tail = mem.hostRead(3 * kPageSize, kPageSize);
    ASSERT_TRUE(tail.isOk());
    EXPECT_EQ(ByteVec(tail->begin(), tail->begin() + 100),
              ByteVec(100, u8{0x5c}));
    EXPECT_EQ(ByteVec(tail->begin() + 100, tail->end()),
              ByteVec(kPageSize - 100, u8{0}))
        << "the view replaces the whole page, past its data too";
    EXPECT_EQ(mem.cowPageCount(), 1u);
}

std::unique_ptr<crypto::XexCipher>
fixedEngine()
{
    crypto::Aes128Key key{};
    crypto::Aes128Key tweak{};
    for (std::size_t i = 0; i < key.size(); ++i) {
        key[i] = static_cast<u8>(i * 7 + 1);
        tweak[i] = static_cast<u8>(i * 13 + 5);
    }
    return std::make_unique<crypto::XexCipher>(key, tweak);
}

TEST(CowTest, EncryptedViewMaterializesAsAGuestWriteWould)
{
    constexpr Spa kSpa = 0x100000000ull;
    constexpr u32 kAsid = 3;
    constexpr Gpa kGpa = 2 * kPageSize;
    ByteVec plain(2 * kPageSize);
    for (std::size_t i = 0; i < plain.size(); ++i) {
        plain[i] = static_cast<u8>(i * 31 + (i >> 9));
    }

    memory::GuestMemory viewed(8 * kPageSize, kSpa, kAsid);
    viewed.attachEncryption(fixedEngine());
    ASSERT_TRUE(viewed.rmp().pspAssignValidated(kSpa + kGpa, kAsid, kGpa, 2)
                    .isOk());
    ASSERT_TRUE(viewed
                    .mapCowPages(kGpa, std::make_shared<const ByteVec>(plain),
                                 /*encrypted=*/true)
                    .isOk());

    memory::GuestMemory written(8 * kPageSize, kSpa, kAsid);
    written.attachEncryption(fixedEngine());
    ASSERT_TRUE(written.rmp().pspAssignValidated(kSpa + kGpa, kAsid, kGpa, 2)
                    .isOk());
    ASSERT_TRUE(written.guestWrite(kGpa, plain, /*c_bit=*/true).isOk());

    Result<ByteVec> a = viewed.hostRead(kGpa, plain.size());
    Result<ByteVec> b = written.hostRead(kGpa, plain.size());
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(*a, *b) << "same key, same SPA: same ciphertext";
    EXPECT_NE(*a, plain);
    EXPECT_EQ(viewed.cowMaterializedCount(), 2u);
    Result<ByteVec> back = viewed.guestRead(kGpa, plain.size(), true);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, plain);
}

TEST(CowTest, OverlappingViewIsRefusedBeforeAnyChange)
{
    memory::GuestMemory mem(8 * kPageSize, 0x100000000ull, /*asid=*/0);
    auto first = std::make_shared<const ByteVec>(3 * kPageSize, u8{0x11});
    auto second = std::make_shared<const ByteVec>(2 * kPageSize, u8{0x22});
    ASSERT_TRUE(mem.mapCowPages(kPageSize, first, false).isOk());
    EXPECT_EQ(mem.mapCowPages(3 * kPageSize, second, false).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(mem.cowPageCount(), 3u);

    // Once the overlapped page is plain DRAM, a new view may cover it.
    ASSERT_TRUE(mem.hostRead(3 * kPageSize, 1).isOk());
    ASSERT_TRUE(mem.mapCowPages(3 * kPageSize, second, false).isOk());
    EXPECT_EQ(mem.cowPageCount(), 4u);
    ByteSpan raw = mem.raw();
    EXPECT_EQ(raw[kPageSize], 0x11);
    EXPECT_EQ(raw[3 * kPageSize], 0x22);
    EXPECT_EQ(raw[4 * kPageSize], 0x22);
    EXPECT_EQ(mem.cowPageCount(), 0u);
}

TEST(CowTest, ForgedSnapshotChangesNoViewOrRmpEntry)
{
    constexpr Spa kSpa = 0x100000000ull;
    constexpr u32 kAsid = 3;
    memory::MemorySnapshot good;
    good.memory_size = 16 * kPageSize;
    good.segments.push_back(memory::SnapshotSegment{
        kPageSize, true,
        std::make_shared<const ByteVec>(3 * kPageSize, u8{0x42})});
    good.segments.push_back(memory::SnapshotSegment{
        8 * kPageSize, false,
        std::make_shared<const ByteVec>(kPageSize + 1, u8{0x24})});
    good.validated.push_back(memory::GpaRange{kPageSize, 4 * kPageSize});
    good.validated.push_back(memory::GpaRange{10 * kPageSize, 12 * kPageSize});

    {
        memory::GuestMemory mem(16 * kPageSize, kSpa, kAsid);
        mem.attachEncryption(fixedEngine());
        ASSERT_TRUE(mem.instantiateSnapshot(good).isOk());
        EXPECT_EQ(mem.cowPageCount(), 5u);
        EXPECT_EQ(mem.rmp().validatedCount(), 5u);
        const memory::RmpEntry &e = mem.rmp().entryAt(kSpa + 11 * kPageSize);
        EXPECT_TRUE(e.assigned && e.validated);
        EXPECT_EQ(e.gpa, 11 * kPageSize);
        EXPECT_EQ(e.asid, kAsid);
    }
    for (const SnapshotForgery &forgery : kForgeries) {
        SCOPED_TRACE(forgery.name);
        memory::MemorySnapshot forged = good;
        forgery.apply(forged);
        memory::GuestMemory mem(16 * kPageSize, kSpa, kAsid);
        mem.attachEncryption(fixedEngine());
        EXPECT_EQ(mem.instantiateSnapshot(forged).code(),
                  ErrorCode::kInvalidArgument);
        EXPECT_EQ(mem.cowPageCount(), 0u);
        EXPECT_EQ(mem.rmp().validatedCount(), 0u);
        EXPECT_EQ(mem.pageLabel(kPageSize), taint::kNone);
    }

    // A segment over a view still pending from an earlier mapping.
    memory::GuestMemory mem(16 * kPageSize, kSpa, kAsid);
    mem.attachEncryption(fixedEngine());
    ASSERT_TRUE(mem.mapCowPages(3 * kPageSize,
                                std::make_shared<const ByteVec>(kPageSize),
                                false)
                    .isOk());
    EXPECT_EQ(mem.instantiateSnapshot(good).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(mem.cowPageCount(), 1u);
    EXPECT_EQ(mem.rmp().validatedCount(), 0u);
}

// ===================================================================
// Page backing of guest DRAM (memory/dram.h)
// ===================================================================

/** The kernel or this process has transparent huge pages switched off. */
bool
thpOff()
{
    std::ifstream enabled("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string modes;
    std::getline(enabled, modes);
    if (modes.empty() || modes.find("[never]") != std::string::npos) {
        return true;
    }
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("THP_enabled:", 0) == 0) {
            return line.find('0') != std::string::npos;
        }
    }
    return false;
}

/**
 * THPeligible of the /proc/self/smaps mapping holding @p addr, or
 * nullopt when the field is absent.
 */
std::optional<int>
thpEligible(const void *addr)
{
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    std::ifstream smaps("/proc/self/smaps");
    bool inside = false;
    std::string line;
    while (std::getline(smaps, line)) {
        unsigned long long lo = 0;
        unsigned long long hi = 0;
        if (std::sscanf(line.c_str(), "%llx-%llx", &lo, &hi) == 2) {
            inside = lo <= a && a < hi;
        } else if (inside && line.rfind("THPeligible:", 0) == 0) {
            return std::stoi(line.substr(std::strlen("THPeligible:")));
        }
    }
    return std::nullopt;
}

TEST(PageBackingTest, ColdVmOnHugePagesRestoredVmOnSmallPages)
{
    // Guards warm_serve: a restore touches few pages, and on 2 MiB
    // pages each touch would fault in a whole huge page. Reads only.
    if (thpOff()) {
        GTEST_SKIP() << "transparent huge pages are off";
    }
    core::Platform platform(sim::CostParams::deterministic());
    core::LaunchRequest req = smallRequest();
    req.keep_vm = true;
    std::unique_ptr<core::BootStrategy> strategy =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz);
    Result<core::LaunchResult> cold = strategy->launch(platform, req);
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();
    ASSERT_FALSE(cold->cache_hit);
    Result<core::LaunchResult> warm = strategy->launch(platform, req);
    ASSERT_TRUE(warm.isOk()) << warm.status().toString();
    ASSERT_TRUE(warm->cache_hit);

    std::optional<int> cold_thp =
        thpEligible(cold->vm->memory().raw().data());
    std::optional<int> warm_thp =
        thpEligible(warm->vm->memory().raw().data());
    if (!cold_thp || !warm_thp) {
        GTEST_SKIP() << "no THPeligible field in /proc/self/smaps";
    }
    EXPECT_EQ(*cold_thp, 1) << "cold guest DRAM is advised MADV_HUGEPAGE";
    EXPECT_EQ(*warm_thp, 0) << "a restored VM keeps 4 KiB pages";
}

// ===================================================================
// Admission pipeline
// ===================================================================

TEST(AdmissionTest, BurstDedupsIntoOneColdBoot)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::AdmissionConfig config;
    config.workers = 2;
    core::AdmissionPipeline pipeline(platform, config);
    pipeline.setTenantLimits("t", {});
    core::LaunchRequest req = smallRequest();

    constexpr int kBurst = 6;
    std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
    for (int i = 0; i < kBurst; ++i) {
        tickets.push_back(
            pipeline.submit("t", core::StrategyKind::kSeveriFastBz, req));
    }

    int warm = 0;
    crypto::Sha256Digest measurement{};
    for (int i = 0; i < kBurst; ++i) {
        Result<core::LaunchResult> r = tickets[i]->take();
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        if (i == 0) {
            measurement = r->measurement;
        }
        EXPECT_EQ(r->measurement, measurement);
        warm += r->cache_hit ? 1 : 0;
    }
    EXPECT_EQ(warm, kBurst - 1)
        << "identical requests collapse into one single-flight build";

    core::AdmissionPipeline::Stats stats = pipeline.stats();
    EXPECT_EQ(stats.submitted, static_cast<u64>(kBurst));
    EXPECT_EQ(stats.completed, static_cast<u64>(kBurst));
    EXPECT_EQ(stats.failed, 0u);
}

TEST(AdmissionTest, TicketIsSingleConsumer)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::AdmissionPipeline pipeline(platform);
    pipeline.setTenantLimits("t", {});
    auto ticket = pipeline.submit(
        "t", core::StrategyKind::kStockFirecracker, smallRequest());
    ASSERT_TRUE(ticket->take().isOk());
    Result<core::LaunchResult> again = ticket->take();
    EXPECT_FALSE(again.isOk());
    EXPECT_EQ(again.status().code(), ErrorCode::kInvalidState);
}

TEST(AdmissionTest, DestructionDrainsOutstandingTickets)
{
    core::Platform platform(sim::CostParams::deterministic());
    std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
    {
        core::AdmissionPipeline pipeline(platform);
        pipeline.setTenantLimits("t", {});
        for (int i = 0; i < 4; ++i) {
            tickets.push_back(pipeline.submit(
                "t", core::StrategyKind::kSeveriFastBz, smallRequest()));
        }
        // Destructor must complete every admitted launch.
    }
    for (auto &ticket : tickets) {
        EXPECT_TRUE(ticket->ready());
        EXPECT_TRUE(ticket->take().isOk());
    }
}

// The ISSUE 10 shutdown race: a submit() blocked on a full queue with
// shed_on_full off must not deadlock when the pipeline is destroyed —
// it resolves its ticket with a typed kUnavailable instead. A 1-deep
// queue plus a single worker makes the third submit reliably block.
TEST(AdmissionTest, ShutdownResolvesBlockedSubmitWithTypedError)
{
    core::Platform platform(sim::CostParams::deterministic());
    std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
    std::shared_ptr<core::LaunchTicket> blocked;
    std::thread submitter;
    {
        core::AdmissionConfig config;
        config.workers = 1;
        config.queue_depth = 1;
        core::AdmissionPipeline pipeline(platform, config);
        pipeline.setTenantLimits("t", {});
        // Fill the worker and the single queue slot.
        tickets.push_back(pipeline.submit(
            "t", core::StrategyKind::kSeveriFastBz, smallRequest()));
        tickets.push_back(pipeline.submit(
            "t", core::StrategyKind::kSeveriFastBz, smallRequest()));
        // The third submit likely parks in space_.wait (or, if the
        // worker drained fast enough, is admitted normally — both
        // resolutions below are valid).
        submitter = std::thread([&pipeline, &blocked] {
            blocked = pipeline.submit(
                "t", core::StrategyKind::kSeveriFastBz, smallRequest());
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        // Destruction must wake the blocked submitter; if it doesn't,
        // this test hangs (the regression being guarded against).
    }
    submitter.join();
    ASSERT_NE(blocked, nullptr);
    Result<core::LaunchResult> r = blocked->take();
    if (!r.isOk()) {
        EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable)
            << r.status().toString();
    }
    for (auto &ticket : tickets) {
        EXPECT_TRUE(ticket->take().isOk());
    }
}

TEST(AdmissionTest, TenantQuotaRejectsWithTypedError)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::AdmissionConfig config;
    config.workers = 1;
    core::AdmissionPipeline pipeline(platform, config);
    core::ScheduleLimits limits;
    limits.max_queued = 1;
    pipeline.setTenantLimits("capped", limits);

    // Burst well past the quota: at most 1 queued + whatever the single
    // worker already pulled in flight may be admitted; the tail of the
    // burst must see typed kQuotaExceeded rejections.
    constexpr int kBurst = 8;
    std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
    for (int i = 0; i < kBurst; ++i) {
        tickets.push_back(pipeline.submit(
            "capped", core::StrategyKind::kSeveriFastBz, smallRequest()));
    }
    int rejected = 0;
    for (auto &ticket : tickets) {
        Result<core::LaunchResult> r = ticket->take();
        if (!r.isOk()) {
            EXPECT_EQ(r.status().code(), ErrorCode::kQuotaExceeded)
                << r.status().toString();
            rejected++;
        }
    }
    EXPECT_GT(rejected, 0) << "an 8-burst into a 1-deep tenant quota "
                              "must reject some launches";
    core::AdmissionPipeline::Stats stats = pipeline.stats();
    EXPECT_EQ(stats.rejected_quota, static_cast<u64>(rejected));
    EXPECT_EQ(stats.submitted + stats.rejected_quota,
              static_cast<u64>(kBurst));
}

// ===================================================================
// DRR scheduler (unit level — the structure AdmissionPipeline locks)
// ===================================================================

TEST(DrrSchedulerTest, WeightedShareUnderContention)
{
    core::DrrScheduler<int> sched;
    core::ScheduleLimits heavy;
    heavy.weight = 3;
    sched.setLimits("heavy", heavy);
    // "light" keeps the default weight of 1.
    for (int i = 0; i < 12; ++i) {
        ASSERT_EQ(sched.push("heavy", 100 + i),
                  core::DrrScheduler<int>::Push::kOk);
    }
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(sched.push("light", 200 + i),
                  core::DrrScheduler<int>::Push::kOk);
    }
    // Every round: 3 heavy pops then 1 light pop (3:1 weighted share),
    // so the light tenant's last job leaves by pop 16 overall and each
    // window of 4 pops contains exactly one light job.
    std::vector<bool> light_at;
    while (!sched.idle()) {
        std::optional<int> job = sched.pop();
        ASSERT_TRUE(job.has_value());
        light_at.push_back(*job >= 200);
        sched.noteCompleted(*job >= 200 ? "light" : "heavy");
    }
    ASSERT_EQ(light_at.size(), 16u);
    for (int round = 0; round < 4; ++round) {
        int light_in_round = 0;
        for (int k = 0; k < 4; ++k) {
            light_in_round += light_at[round * 4 + k] ? 1 : 0;
        }
        EXPECT_EQ(light_in_round, 1)
            << "round " << round
            << ": light tenant must dispatch once per 4-pop round";
    }
}

TEST(DrrSchedulerTest, InFlightCapParksTenantUntilCompletion)
{
    core::DrrScheduler<int> sched;
    core::ScheduleLimits capped;
    capped.max_in_flight = 1;
    sched.setLimits("capped", capped);
    ASSERT_EQ(sched.push("capped", 1),
              core::DrrScheduler<int>::Push::kOk);
    ASSERT_EQ(sched.push("capped", 2),
              core::DrrScheduler<int>::Push::kOk);

    std::optional<int> first = sched.pop();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, 1);
    // Second pop: the only queued tenant is at its cap → nullopt, and
    // the scheduler still reports the parked job as queued.
    EXPECT_FALSE(sched.pop().has_value());
    EXPECT_EQ(sched.size(), 1u);
    EXPECT_EQ(sched.queuedFor("capped"), 1u);
    EXPECT_EQ(sched.inFlightFor("capped"), 1u);

    sched.noteCompleted("capped");
    std::optional<int> second = sched.pop();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second, 2);
    EXPECT_TRUE(sched.idle());
}

TEST(DrrSchedulerTest, MaxQueuedRefusesPush)
{
    core::DrrScheduler<int> sched;
    core::ScheduleLimits limits;
    limits.max_queued = 2;
    sched.setLimits("t", limits);
    EXPECT_EQ(sched.push("t", 1), core::DrrScheduler<int>::Push::kOk);
    EXPECT_FALSE(sched.atQuota("t"));
    EXPECT_EQ(sched.push("t", 2), core::DrrScheduler<int>::Push::kOk);
    EXPECT_TRUE(sched.atQuota("t"));
    EXPECT_EQ(sched.push("t", 3),
              core::DrrScheduler<int>::Push::kQuotaExceeded);
    // A pop frees a slot (quota is on QUEUED jobs, not in-flight ones).
    ASSERT_TRUE(sched.pop().has_value());
    EXPECT_FALSE(sched.atQuota("t"));
    EXPECT_EQ(sched.push("t", 3), core::DrrScheduler<int>::Push::kOk);
    // Unnamed and unlimited tenants are never at quota.
    EXPECT_FALSE(sched.atQuota("ghost"));
    sched.setLimits("open", {});
    EXPECT_EQ(sched.push("open", 4), core::DrrScheduler<int>::Push::kOk);
    EXPECT_FALSE(sched.atQuota("open"));
}

TEST(DrrSchedulerTest, IdleTenantEntersAtRingHead)
{
    // The latency bound bench_service_fairness gates on: a tenant going
    // idle -> active takes the ring head, so against a standing backlog
    // its job is the very next pop instead of waiting out the
    // backlogged tenant's whole quantum.
    core::DrrScheduler<int> sched;
    for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(sched.push("heavy", i),
                  core::DrrScheduler<int>::Push::kOk);
    }
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(sched.pop().has_value());
    }
    ASSERT_EQ(sched.push("light", 1000),
              core::DrrScheduler<int>::Push::kOk);
    std::optional<int> next = sched.pop();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, 1000);
    // Once its queue drains it leaves the ring; heavy resumes.
    std::optional<int> after = sched.pop();
    ASSERT_TRUE(after.has_value());
    EXPECT_LT(*after, 1000);
}

TEST(DrrSchedulerTest, RefilledTenantWaitsItsTurn)
{
    // A closed-loop tenant refills its queue right after each pop, so
    // every pop empties it. The emptied tenant moves to the ring tail:
    // a refill before the next pop is no idle -> active edge, and the
    // backlogged tenant gets its full quantum of W pops between any two
    // light pops (re-entering at the head would give it none).
    for (u32 weight : {1u, 8u}) {
        SCOPED_TRACE("heavy weight " + std::to_string(weight));
        core::DrrScheduler<int> sched;
        core::ScheduleLimits heavy;
        heavy.weight = weight;
        sched.setLimits("heavy", heavy);
        for (int i = 0; i < 100; ++i) {
            ASSERT_EQ(sched.push("heavy", i),
                      core::DrrScheduler<int>::Push::kOk);
        }
        ASSERT_EQ(sched.push("light", 1000),
                  core::DrrScheduler<int>::Push::kOk);
        std::vector<u32> heavy_runs;
        u32 run = 0;
        while (heavy_runs.size() < 6) {
            std::optional<int> job = sched.pop();
            ASSERT_TRUE(job.has_value());
            if (*job < 1000) {
                sched.noteCompleted("heavy");
                run++;
                continue;
            }
            sched.noteCompleted("light");
            heavy_runs.push_back(run);
            run = 0;
            ASSERT_EQ(sched.push("light", 1000),
                      core::DrrScheduler<int>::Push::kOk);
        }
        // The first light job entered idle -> active at the head.
        EXPECT_EQ(heavy_runs[0], 0u);
        for (std::size_t i = 1; i < heavy_runs.size(); ++i) {
            EXPECT_EQ(heavy_runs[i], weight) << "light pop " << i;
        }
    }
}

} // namespace
} // namespace sevf
