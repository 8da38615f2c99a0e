/**
 * @file
 * Chaos sweep: seeded fault injection across every boot strategy.
 *
 * The contract under test is the one docs/RELIABILITY.md promises:
 * whatever survivable fault sequence a plan injects, a launch either
 * completes with a measurement bit-identical to the fault-free boot or
 * fails with a clean typed error (kUnavailable when a retry budget is
 * exhausted, kBackpressure when admission sheds) — never an abort,
 * never a silently wrong measurement. tools/ci.sh stage [chaos] runs
 * this suite; the seeds are fixed so every run is reproducible.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "cache/template_cache.h"
#include "core/admission.h"
#include "core/launch.h"
#include "fault/fault.h"
#include "obs/families.h"
#include "obs/span.h"
#include "service/launch_service.h"

namespace sevf {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultSite;
using fault::ScopedFaultPlan;

constexpr double kScale = 1.0 / 32.0;

constexpr core::StrategyKind kStrategies[] = {
    core::StrategyKind::kStockFirecracker,
    core::StrategyKind::kQemuOvmfSev,
    core::StrategyKind::kSevDirectBoot,
    core::StrategyKind::kSeveriFastBz,
    core::StrategyKind::kSeveriFastVmlinux,
};

/** 13 seeds x 5 strategies = 65 chaos runs (the >= 64 CI floor). */
constexpr u64 kSeedsPerStrategy = 13;

core::LaunchRequest
chaosRequest()
{
    core::LaunchRequest req;
    req.kernel = workload::KernelConfig::kAws;
    req.scale = kScale;
    req.attest = false;
    return req;
}

/** Every site armed at once; probabilities sized so the PSP's 3-attempt
 *  budget absorbs most (not all) transient bursts. */
std::string
chaosPlanSpec(u64 seed)
{
    return "seed=" + std::to_string(seed) +
           ";psp:p=0.1;disk-read:p=0.5;disk-write:p=0.5"
           ";dram-mmap:p=0.3;admission:p=0.1";
}

bool
isTypedChaosError(const Status &status)
{
    return status.code() == ErrorCode::kUnavailable ||
           status.code() == ErrorCode::kBackpressure ||
           status.code() == ErrorCode::kQuotaExceeded;
}

TEST(ChaosTest, EveryStrategySurvivesOrFailsTyped)
{
    std::filesystem::path disk_root =
        std::filesystem::temp_directory_path() / "sevf_chaos_test";
    std::filesystem::remove_all(disk_root);
    std::filesystem::create_directories(disk_root);

    u64 survived = 0;
    u64 typed_failures = 0;
    u64 faults_injected = 0;

    for (core::StrategyKind kind : kStrategies) {
        // Fault-free baseline on a fresh platform: the measurement every
        // surviving chaos run must reproduce bit for bit.
        crypto::Sha256Digest baseline{};
        {
            core::Platform platform(sim::CostParams::deterministic());
            Result<core::LaunchResult> clean =
                core::makeStrategy(kind)->launch(platform, chaosRequest());
            ASSERT_TRUE(clean.isOk())
                << core::strategyName(kind) << ": "
                << clean.status().toString();
            baseline = clean->measurement;
        }

        // One disk-tier dir per strategy, shared across seeds: later
        // runs warm-hit from disk, so the sweep also covers warm-replay
        // failure -> invalidate -> cold fallback, and disk read/write
        // faults actually have I/O to fail.
        std::filesystem::path disk_dir =
            disk_root / core::strategyName(kind);
        std::filesystem::create_directories(disk_dir);

        for (u64 seed = 1; seed <= kSeedsPerStrategy; ++seed) {
            SCOPED_TRACE(std::string(core::strategyName(kind)) +
                         " seed=" + std::to_string(seed));
            Result<FaultPlan> plan = FaultPlan::parse(chaosPlanSpec(seed));
            ASSERT_TRUE(plan.isOk()) << plan.status().toString();
            ScopedFaultPlan armed(plan.take());

            core::Platform platform(sim::CostParams::deterministic());
            platform.templateCache().setDiskDir(disk_dir.string());
            core::AdmissionConfig config;
            config.workers = 2;
            core::AdmissionPipeline pipeline(platform, config);
            pipeline.setTenantLimits("t", {});
            auto ticket = pipeline.submit("t", kind, chaosRequest());
            Result<core::LaunchResult> result = ticket->take();

            for (FaultSite site :
                 {FaultSite::kPspCommand, FaultSite::kCacheDiskRead,
                  FaultSite::kCacheDiskWrite, FaultSite::kDramMmap,
                  FaultSite::kAdmissionEnqueue}) {
                faults_injected +=
                    FaultInjector::instance().siteStats(site).injected;
            }

            if (result.isOk()) {
                ++survived;
                // The core invariant: fault recovery (retries, disk
                // degradation, mmap fallback, cold fallback after a
                // poisoned template) must never change what the guest
                // owner attests.
                EXPECT_EQ(result->measurement, baseline)
                    << "fault recovery changed the launch measurement";
            } else {
                ++typed_failures;
                EXPECT_TRUE(isTypedChaosError(result.status()))
                    << "untyped chaos failure: "
                    << result.status().toString();
            }
        }
    }

    u64 total =
        kSeedsPerStrategy * (sizeof(kStrategies) / sizeof(kStrategies[0]));
    EXPECT_EQ(survived + typed_failures, total);
    EXPECT_GT(survived, 0u) << "every chaos run failed; plan too hostile";
    EXPECT_GT(faults_injected, 0u)
        << "the sweep injected nothing; plan too gentle";
    std::filesystem::remove_all(disk_root);
}

// The serving-layer chaos sweep: the same survive-or-fail-typed
// contract, exercised through the multi-tenant launch service with the
// service-enqueue fault site armed on top of the pipeline sites and a
// tight per-tenant quota in play. Every ticket must resolve with the
// baseline measurement or a typed error — quota rejections included —
// and the outcomes recorded on the tickets must equal the tenant's
// sevf_service_* counters.
TEST(ChaosTest, ServiceSubmitSurvivesOrFailsTyped)
{
    obs::ScopedEnable obs_on(/*metrics=*/true, /*tracing=*/false);
    crypto::Sha256Digest baseline{};
    {
        core::Platform platform(sim::CostParams::deterministic());
        Result<core::LaunchResult> clean =
            core::makeStrategy(core::StrategyKind::kSeveriFastBz)
                ->launch(platform, chaosRequest());
        ASSERT_TRUE(clean.isOk()) << clean.status().toString();
        baseline = clean->measurement;
    }

    u64 survived = 0;
    u64 typed_failures = 0;
    u64 service_faults = 0;
    for (u64 seed = 1; seed <= kSeedsPerStrategy; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Result<FaultPlan> plan = FaultPlan::parse(
            chaosPlanSpec(seed) + ";service-enqueue:p=0.2");
        ASSERT_TRUE(plan.isOk()) << plan.status().toString();
        ScopedFaultPlan armed(plan.take());
        obs::Registry::instance().reset();

        core::Platform platform(sim::CostParams::deterministic());
        service::TenantRegistry registry;
        service::ServiceConfig config;
        config.workers = 2;
        service::LaunchService svc(platform, registry, config);
        service::TenantQuota quota;
        quota.max_queued = 2;
        ASSERT_TRUE(svc.registerTenant("chaos", quota).isOk());

        std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
        for (int i = 0; i < 5; ++i) {
            tickets.push_back(
                svc.submit("chaos", core::StrategyKind::kSeveriFastBz,
                           chaosRequest()));
        }
        std::map<core::LaunchOutcome, u64> recorded;
        for (auto &ticket : tickets) {
            Result<core::LaunchResult> result = ticket->take();
            core::LaunchOutcome outcome = ticket->outcome();
            recorded[outcome]++;
            EXPECT_EQ(result.isOk(),
                      outcome == core::LaunchOutcome::kCompleted);
            if (result.isOk()) {
                ++survived;
                EXPECT_EQ(result->measurement, baseline)
                    << "fault recovery changed the launch measurement";
            } else {
                ++typed_failures;
                EXPECT_TRUE(isTypedChaosError(result.status()))
                    << "untyped chaos failure: "
                    << result.status().toString();
            }
        }
        auto count = [](const obs::CounterFamily &family) {
            return family.metric("chaos").value();
        };
        EXPECT_EQ(count(obs::kServiceSubmitted), tickets.size());
        EXPECT_EQ(count(obs::kServiceRejected),
                  recorded[core::LaunchOutcome::kRejected]);
        EXPECT_EQ(count(obs::kServiceCompleted),
                  recorded[core::LaunchOutcome::kCompleted]);
        EXPECT_EQ(count(obs::kServiceFailed),
                  recorded[core::LaunchOutcome::kFailed]);
        service_faults += FaultInjector::instance()
                              .siteStats(FaultSite::kServiceEnqueue)
                              .injected;
    }
    EXPECT_EQ(survived + typed_failures, kSeedsPerStrategy * 5);
    EXPECT_GT(survived, 0u) << "every service chaos run failed";
    EXPECT_GT(typed_failures, 0u)
        << "quota + service faults injected nothing";
    EXPECT_GT(service_faults, 0u)
        << "the service-enqueue site never fired";
}

TEST(ChaosTest, SameSeedReplaysTheSameOutcome)
{
    // Reproducibility is what makes a chaos failure debuggable: the
    // same plan, seed, and (serial) launch must inject the same fault
    // sequence and land on the same outcome both times.
    auto run = [](u64 seed) {
        Result<FaultPlan> plan = FaultPlan::parse(chaosPlanSpec(seed));
        EXPECT_TRUE(plan.isOk());
        ScopedFaultPlan armed(plan.take());
        core::Platform platform(sim::CostParams::deterministic());
        core::LaunchRequest req = chaosRequest();
        req.host_threads = 1; // serial: fault-site order is total
        return core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, req);
    };
    for (u64 seed : {2u, 5u, 9u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Result<core::LaunchResult> first = run(seed);
        Result<core::LaunchResult> second = run(seed);
        ASSERT_EQ(first.isOk(), second.isOk());
        if (first.isOk()) {
            EXPECT_EQ(first->measurement, second->measurement);
        } else {
            EXPECT_EQ(first.status().code(), second.status().code());
        }
    }
}

} // namespace
} // namespace sevf
