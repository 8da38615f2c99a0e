/**
 * @file
 * Fault-injection framework tests: plan parsing/round-trip, the
 * injector's deterministic triggers, the retry/backoff policy, cache
 * disk-tier quarantine, DRAM mmap fallback, and admission-pipeline load
 * shedding (including drain-during-fault and double-drain).
 */
#include <gtest/gtest.h>

#include <filesystem>

#include "cache/launch_key.h"
#include "cache/template_cache.h"
#include "core/admission.h"
#include "core/launch.h"
#include "fault/fault.h"
#include "fault/retry.h"
#include "memory/dram.h"
#include "psp/key_server.h"
#include "psp/psp.h"

namespace sevf {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultSite;
using fault::RetryPolicy;
using fault::ScopedFaultPlan;

// ===================================================================
// FaultPlan parsing
// ===================================================================

TEST(FaultPlanTest, ParsesSitesTriggersAndSeed)
{
    Result<FaultPlan> plan = FaultPlan::parse(
        "seed=7; psp:p=0.25; disk-read:nth=2,count=3; admission:nth=1");
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    EXPECT_EQ(plan->seed, 7u);
    ASSERT_EQ(plan->rules.size(), 3u);
    EXPECT_EQ(plan->rules[0].site, FaultSite::kPspCommand);
    EXPECT_DOUBLE_EQ(plan->rules[0].probability, 0.25);
    EXPECT_EQ(plan->rules[1].site, FaultSite::kCacheDiskRead);
    EXPECT_EQ(plan->rules[1].nth, 2u);
    EXPECT_EQ(plan->rules[1].count, 3u);
    EXPECT_EQ(plan->rules[2].site, FaultSite::kAdmissionEnqueue);
    EXPECT_EQ(plan->rules[2].nth, 1u);
    EXPECT_EQ(plan->rules[2].count, 1u);
}

TEST(FaultPlanTest, RoundTripsThroughToString)
{
    const char *spec = "seed=9;psp:p=0.5;disk-write:nth=1,count=4";
    Result<FaultPlan> plan = FaultPlan::parse(spec);
    ASSERT_TRUE(plan.isOk());
    EXPECT_EQ(plan->toString(), spec);
    Result<FaultPlan> again = FaultPlan::parse(plan->toString());
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(again->toString(), plan->toString());
}

TEST(FaultPlanTest, RejectsMalformedSpecs)
{
    EXPECT_FALSE(FaultPlan::parse("warp-core:p=0.5").isOk());
    EXPECT_FALSE(FaultPlan::parse("psp").isOk()) << "no trigger";
    EXPECT_FALSE(FaultPlan::parse("psp:p=1.5").isOk()) << "p out of range";
    EXPECT_FALSE(FaultPlan::parse("psp:nth=0").isOk()) << "nth is 1-based";
    EXPECT_FALSE(FaultPlan::parse("psp:count=0").isOk());
    EXPECT_FALSE(FaultPlan::parse("psp:nth=1,p=0.5").isOk())
        << "mixed triggers";
    EXPECT_FALSE(FaultPlan::parse("psp:warp=9").isOk());
    EXPECT_FALSE(FaultPlan::parse("seed=banana").isOk());
}

TEST(FaultPlanTest, SiteNamesRoundTrip)
{
    for (FaultSite site :
         {FaultSite::kPspCommand, FaultSite::kCacheDiskRead,
          FaultSite::kCacheDiskWrite, FaultSite::kDramMmap,
          FaultSite::kAdmissionEnqueue, FaultSite::kServiceEnqueue}) {
        Result<FaultSite> parsed =
            fault::parseFaultSite(fault::faultSiteName(site));
        ASSERT_TRUE(parsed.isOk()) << fault::faultSiteName(site);
        EXPECT_EQ(*parsed, site);
    }
    EXPECT_FALSE(fault::parseFaultSite("psp ").isOk());
}

// ===================================================================
// FaultInjector triggers
// ===================================================================

TEST(FaultInjectorTest, DisarmedInjectsNothing)
{
    FaultInjector &inj = FaultInjector::instance();
    ASSERT_FALSE(inj.armed());
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(inj.check(FaultSite::kPspCommand, "test").isOk());
    }
}

TEST(FaultInjectorTest, NthWindowFiresExactly)
{
    Result<FaultPlan> plan = FaultPlan::parse("psp:nth=3,count=2");
    ASSERT_TRUE(plan.isOk());
    ScopedFaultPlan armed(plan.take());
    FaultInjector &inj = FaultInjector::instance();
    for (u64 occ = 1; occ <= 8; ++occ) {
        Status s = inj.check(FaultSite::kPspCommand, "test");
        if (occ == 3 || occ == 4) {
            EXPECT_FALSE(s.isOk()) << "occurrence " << occ;
            EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
        } else {
            EXPECT_TRUE(s.isOk()) << "occurrence " << occ;
        }
    }
    FaultInjector::SiteStats stats =
        inj.siteStats(FaultSite::kPspCommand);
    EXPECT_EQ(stats.occurrences, 8u);
    EXPECT_EQ(stats.injected, 2u);
    // Sites without rules never fire.
    EXPECT_TRUE(inj.check(FaultSite::kDramMmap, "test").isOk());
}

TEST(FaultInjectorTest, ProbabilityIsSeededAndDeterministic)
{
    auto run = [](u64 seed) {
        FaultPlan plan;
        plan.seed = seed;
        plan.rules.push_back({FaultSite::kCacheDiskRead, 0.5, 0, 1});
        ScopedFaultPlan armed(plan);
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i) {
            fired.push_back(!FaultInjector::instance()
                                 .check(FaultSite::kCacheDiskRead, "t")
                                 .isOk());
        }
        return fired;
    };
    std::vector<bool> a = run(11);
    EXPECT_EQ(a, run(11)) << "same seed, same fault sequence";
    EXPECT_NE(a, run(12)) << "different seed, different sequence";
    std::size_t injected = 0;
    for (bool b : a) {
        injected += b ? 1 : 0;
    }
    EXPECT_GT(injected, 16u);
    EXPECT_LT(injected, 48u);
}

TEST(FaultInjectorTest, ArmResetsOccurrenceCounters)
{
    Result<FaultPlan> plan = FaultPlan::parse("psp:nth=1");
    ASSERT_TRUE(plan.isOk());
    FaultPlan p = plan.take();
    {
        ScopedFaultPlan armed(p);
        EXPECT_FALSE(FaultInjector::instance()
                         .check(FaultSite::kPspCommand, "t")
                         .isOk());
        EXPECT_TRUE(FaultInjector::instance()
                        .check(FaultSite::kPspCommand, "t")
                        .isOk());
    }
    ScopedFaultPlan rearmed(p);
    EXPECT_FALSE(FaultInjector::instance()
                     .check(FaultSite::kPspCommand, "t")
                     .isOk())
        << "re-arming restarts occurrence counting";
}

// ===================================================================
// Retry policy
// ===================================================================

TEST(RetryTest, BackoffDoublesAndCaps)
{
    RetryPolicy policy;
    policy.base_delay_ns = 1000;
    policy.max_delay_ns = 6000;
    policy.jitter = 0.0;
    Rng rng(1);
    EXPECT_EQ(fault::backoffDelayNs(policy, 2, rng), 1000u);
    EXPECT_EQ(fault::backoffDelayNs(policy, 3, rng), 2000u);
    EXPECT_EQ(fault::backoffDelayNs(policy, 4, rng), 4000u);
    EXPECT_EQ(fault::backoffDelayNs(policy, 5, rng), 6000u) << "capped";
    EXPECT_EQ(fault::backoffDelayNs(policy, 9, rng), 6000u);
}

TEST(RetryTest, JitterStaysWithinFraction)
{
    RetryPolicy policy;
    policy.base_delay_ns = 100000;
    policy.max_delay_ns = 400000;
    policy.jitter = 0.25;
    Rng rng(42);
    for (int i = 0; i < 100; ++i) {
        u64 d = fault::backoffDelayNs(policy, 2, rng);
        EXPECT_GE(d, 75000u);
        EXPECT_LT(d, 125000u);
    }
}

TEST(RetryTest, MaxDelayIsHardCapEvenWithJitter)
{
    // Regression: jitter used to be applied after the cap, so a delay
    // already at max_delay_ns could come out up to (1+jitter)*max —
    // while docs/RELIABILITY.md documents max_delay_ns as a cap on any
    // single delay. The cap must hold post-jitter.
    RetryPolicy policy; // documented defaults: 10 ms cap, 0.1 jitter
    Rng rng(7);
    bool saw_below_cap = false;
    for (int i = 0; i < 1000; ++i) {
        // Attempt 9 is deep enough that the raw delay saturates at max.
        u64 d = fault::backoffDelayNs(policy, 9, rng);
        EXPECT_LE(d, policy.max_delay_ns);
        EXPECT_GE(d, static_cast<u64>(static_cast<double>(
                         policy.max_delay_ns) * (1.0 - policy.jitter)));
        saw_below_cap = saw_below_cap || d < policy.max_delay_ns;
    }
    EXPECT_TRUE(saw_below_cap)
        << "jitter must still spread delays below the cap";
}

TEST(RetryTest, RetriesTransientUntilSuccess)
{
    RetryPolicy policy;
    policy.max_attempts = 4;
    int calls = 0;
    Status s = fault::retryStatus(policy, "test_op", [&] {
        ++calls;
        return calls < 3 ? errUnavailable("busy") : Status::ok();
    });
    EXPECT_TRUE(s.isOk());
    EXPECT_EQ(calls, 3);
}

TEST(RetryTest, PermanentErrorsAreNotRetried)
{
    RetryPolicy policy;
    policy.max_attempts = 5;
    int calls = 0;
    Status s = fault::retryStatus(policy, "test_op", [&] {
        ++calls;
        return errInvalidState("locked");
    });
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::kInvalidState);
    EXPECT_EQ(calls, 1) << "only kUnavailable is in the retryable table";
}

TEST(RetryTest, BudgetExhaustionReturnsLastTransient)
{
    RetryPolicy policy;
    policy.max_attempts = 3;
    int calls = 0;
    Status s = fault::retryStatus(policy, "test_op", [&] {
        ++calls;
        return errUnavailable("still busy");
    });
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
    EXPECT_EQ(calls, 3);
}

TEST(RetryTest, RetryResultCarriesTheValue)
{
    RetryPolicy policy;
    policy.max_attempts = 3;
    int calls = 0;
    Result<int> r =
        fault::retryResult(policy, "test_op", [&]() -> Result<int> {
            ++calls;
            if (calls < 2) {
                return errUnavailable("busy");
            }
            return 1234;
        });
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(*r, 1234);
    EXPECT_EQ(calls, 2);
}

// ===================================================================
// PSP command retry end to end
// ===================================================================

TEST(PspRetryTest, TransientFaultsAreAbsorbedWithinBudget)
{
    // Fail the first two PSP command submissions; the default budget of
    // 3 attempts absorbs both, so the launch flow sees no error.
    Result<FaultPlan> plan = FaultPlan::parse("psp:nth=1,count=2");
    ASSERT_TRUE(plan.isOk());
    ScopedFaultPlan armed(plan.take());

    psp::KeyServer kds;
    psp::Psp psp("chip-retry", kds, /*seed=*/5);
    memory::GuestMemory mem(4 * kPageSize, 0, psp.allocateAsid());
    Result<psp::GuestHandle> handle = psp.launchStart(mem, /*policy=*/1);
    ASSERT_TRUE(handle.isOk()) << handle.status().toString();
}

TEST(PspRetryTest, ExhaustedBudgetReturnsTypedUnavailable)
{
    // Four consecutive submission faults beat the 3-attempt budget.
    Result<FaultPlan> plan = FaultPlan::parse("psp:nth=1,count=4");
    ASSERT_TRUE(plan.isOk());
    ScopedFaultPlan armed(plan.take());

    psp::KeyServer kds;
    psp::Psp psp("chip-exhaust", kds, /*seed=*/5);
    memory::GuestMemory mem(4 * kPageSize, 0, psp.allocateAsid());
    Result<psp::GuestHandle> handle = psp.launchStart(mem, /*policy=*/1);
    ASSERT_FALSE(handle.isOk());
    EXPECT_EQ(handle.status().code(), ErrorCode::kUnavailable);

    // The budget is configurable: 5 attempts would have survived.
    RetryPolicy generous;
    generous.max_attempts = 5;
    psp::Psp psp2("chip-generous", kds, /*seed=*/6);
    psp2.setRetryPolicy(generous);
    EXPECT_EQ(psp2.retryPolicy().max_attempts, 5u);
}

// ===================================================================
// Cache disk-tier quarantine
// ===================================================================

cache::LaunchKey
testKey(u64 n)
{
    cache::LaunchKeyBuilder kb;
    kb.addU64("fault_test_key", n);
    return kb.build();
}

std::shared_ptr<const cache::LaunchTemplate>
testTemplate()
{
    auto t = std::make_shared<cache::LaunchTemplate>();
    cache::TemplateRegion region;
    region.name = "payload";
    region.plaintext = std::make_shared<const ByteVec>(kPageSize, u8{0xcd});
    region.page_digests.resize(1);
    t->plan.push_back(std::move(region));
    return t;
}

class QuarantineTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               "sevf_fault_quarantine_test";
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(QuarantineTest, RepeatedWriteFaultsQuarantineTheDiskTier)
{
    Result<FaultPlan> plan = FaultPlan::parse("disk-write:p=1");
    ASSERT_TRUE(plan.isOk());
    ScopedFaultPlan armed(plan.take());

    cache::TemplateCache cache;
    cache.setDiskDir(dir_.string());
    for (u64 i = 0; i < cache::TemplateCache::kQuarantineStreak; ++i) {
        EXPECT_FALSE(cache.diskQuarantined());
        cache.publish(testKey(i), testTemplate());
    }
    EXPECT_TRUE(cache.diskQuarantined());
    cache::TemplateCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.disk_errors, cache::TemplateCache::kQuarantineStreak);
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_TRUE(std::filesystem::is_empty(dir_))
        << "every write was injected away";

    // Degraded to memory-only: publishes/lookups still work, no more
    // disk errors accumulate, and the in-memory entries still hit.
    cache.publish(testKey(99), testTemplate());
    EXPECT_NE(cache.find(testKey(99)), nullptr);
    EXPECT_EQ(cache.stats().disk_errors,
              cache::TemplateCache::kQuarantineStreak);

    // Re-blessing the disk dir lifts the quarantine.
    cache.setDiskDir(dir_.string());
    EXPECT_FALSE(cache.diskQuarantined());
}

TEST_F(QuarantineTest, ReadFaultsCountAsErrorsNotMisses)
{
    cache::TemplateCache cache;
    cache.setDiskDir(dir_.string());
    cache.publish(testKey(1), testTemplate());
    ASSERT_FALSE(std::filesystem::is_empty(dir_));

    Result<FaultPlan> plan = FaultPlan::parse("disk-read:nth=1");
    ASSERT_TRUE(plan.isOk());
    ScopedFaultPlan armed(plan.take());

    // Fresh cache sharing the disk dir: the injected read fault makes
    // the lookup a miss-with-error (claimed build), not a hit.
    cache::TemplateCache fresh;
    fresh.setDiskDir(dir_.string());
    cache::TemplateCache::Lookup lookup = fresh.beginLookup(testKey(1));
    EXPECT_EQ(lookup.tmpl, nullptr);
    EXPECT_TRUE(lookup.claimed);
    fresh.abandon(testKey(1));
    cache::TemplateCache::Stats stats = fresh.stats();
    EXPECT_EQ(stats.disk_errors, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.quarantined, 0u) << "one error is below the streak";

    // The next lookup (fault exhausted) hits from disk and resets the
    // error streak.
    cache::TemplateCache::Lookup retry = fresh.beginLookup(testKey(1));
    EXPECT_NE(retry.tmpl, nullptr);
    EXPECT_EQ(fresh.stats().disk_errors, 1u);
}

TEST(PoisonTest, InvalidateCountsPoisonedTemplates)
{
    cache::TemplateCache cache;
    cache.publish(testKey(5), testTemplate());
    EXPECT_EQ(cache.stats().poisoned, 0u);
    cache.invalidate(testKey(5));
    EXPECT_EQ(cache.stats().poisoned, 1u);
    EXPECT_EQ(cache.find(testKey(5)), nullptr);
}

// ===================================================================
// DRAM mmap fallback
// ===================================================================

TEST(DramFaultTest, MmapFaultDegradesToHeapFallback)
{
    Result<FaultPlan> plan = FaultPlan::parse("dram-mmap:nth=1");
    ASSERT_TRUE(plan.isOk());
    ScopedFaultPlan armed(plan.take());

    // First allocation hits the injected mmap failure and falls back;
    // contents are still all-zero and writable either way.
    memory::DramBuffer faulted(4 * kPageSize);
    ASSERT_EQ(faulted.size(), 4 * kPageSize);
    for (u64 i = 0; i < faulted.size(); i += kPageSize) {
        EXPECT_EQ(faulted.data()[i], 0u);
    }
    faulted.data()[123] = 0x5a;
    EXPECT_EQ(faulted.data()[123], 0x5a);

    memory::DramBuffer mapped(4 * kPageSize);
    EXPECT_EQ(mapped.data()[0], 0u) << "second allocation maps normally";
}

// ===================================================================
// Admission load shedding + drain error paths
// ===================================================================

core::LaunchRequest
tinyRequest()
{
    core::LaunchRequest req;
    req.kernel = workload::KernelConfig::kAws;
    req.scale = 1.0 / 32.0;
    req.attest = false;
    return req;
}

TEST(AdmissionShedTest, InjectedEnqueueFaultShedsWithBackpressure)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::AdmissionPipeline pipeline(platform);
    pipeline.setTenantLimits("t", {});

    Result<FaultPlan> plan = FaultPlan::parse("admission:nth=1");
    ASSERT_TRUE(plan.isOk());
    std::shared_ptr<core::LaunchTicket> shed;
    std::shared_ptr<core::LaunchTicket> admitted;
    {
        ScopedFaultPlan armed(plan.take());
        shed = pipeline.submit("t", core::StrategyKind::kSeveriFastBz,
                               tinyRequest());
        admitted = pipeline.submit("t", core::StrategyKind::kSeveriFastBz,
                                   tinyRequest());
    }

    // The shed ticket resolves immediately with the typed error.
    ASSERT_TRUE(shed->ready());
    Result<core::LaunchResult> rejected = shed->take();
    ASSERT_FALSE(rejected.isOk());
    EXPECT_EQ(rejected.status().code(), ErrorCode::kBackpressure);

    Result<core::LaunchResult> ok = admitted->take();
    ASSERT_TRUE(ok.isOk()) << ok.status().toString();

    core::AdmissionPipeline::Stats stats = pipeline.stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.submitted, 1u) << "shed launches are not admitted";
    EXPECT_EQ(stats.completed, 1u);
}

TEST(AdmissionShedTest, ShedOnFullRejectsWhenQueueIsSaturated)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::AdmissionConfig config;
    config.workers = 1;
    config.queue_depth = 1;
    config.shed_on_full = true;
    core::AdmissionPipeline pipeline(platform, config);
    pipeline.setTenantLimits("t", {});

    // Saturate: one job running, one queued, then a burst. With
    // shed_on_full nothing blocks; some of the burst must shed.
    std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
    for (int i = 0; i < 8; ++i) {
        tickets.push_back(pipeline.submit(
            "t", core::StrategyKind::kStockFirecracker, tinyRequest()));
    }
    pipeline.drain();

    u64 ok = 0;
    u64 backpressure = 0;
    for (auto &t : tickets) {
        Result<core::LaunchResult> r = t->take();
        if (r.isOk()) {
            ++ok;
        } else {
            ASSERT_EQ(r.status().code(), ErrorCode::kBackpressure)
                << r.status().toString();
            ++backpressure;
        }
    }
    EXPECT_EQ(ok + backpressure, 8u);
    EXPECT_GE(ok, 1u) << "the running job always completes";
    core::AdmissionPipeline::Stats stats = pipeline.stats();
    EXPECT_EQ(stats.shed, backpressure);
    EXPECT_EQ(stats.submitted, ok);
}

TEST(AdmissionShedTest, DrainDuringFaultCompletesEveryTicket)
{
    // Faults on every other enqueue: drain() must still terminate with
    // every ticket (shed or admitted) resolved.
    core::Platform platform(sim::CostParams::deterministic());
    core::AdmissionPipeline pipeline(platform);
    pipeline.setTenantLimits("t", {});
    Result<FaultPlan> plan = FaultPlan::parse("seed=3;admission:p=0.5");
    ASSERT_TRUE(plan.isOk());
    std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
    {
        ScopedFaultPlan armed(plan.take());
        for (int i = 0; i < 8; ++i) {
            tickets.push_back(pipeline.submit(
                "t", core::StrategyKind::kSeveriFastBz, tinyRequest()));
        }
        pipeline.drain();
    }
    for (auto &t : tickets) {
        EXPECT_TRUE(t->ready()) << "drain() leaves no ticket pending";
        Result<core::LaunchResult> r = t->take();
        if (!r.isOk()) {
            EXPECT_EQ(r.status().code(), ErrorCode::kBackpressure);
        }
    }
    core::AdmissionPipeline::Stats stats = pipeline.stats();
    EXPECT_EQ(stats.shed + stats.submitted, 8u);
}

TEST(AdmissionShedTest, DoubleDrainIsIdempotent)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::AdmissionPipeline pipeline(platform);
    pipeline.setTenantLimits("t", {});
    auto ticket = pipeline.submit(
        "t", core::StrategyKind::kStockFirecracker, tinyRequest());
    pipeline.drain();
    pipeline.drain(); // second drain on an idle pipeline returns at once
    EXPECT_TRUE(ticket->ready());
    EXPECT_TRUE(ticket->take().isOk());
    pipeline.drain(); // and a third after consumption still no-ops
}

} // namespace
} // namespace sevf
