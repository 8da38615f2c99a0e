/**
 * @file
 * Multi-tenant launch-service tests: tenant registry validation, quota
 * plumbing into the scheduler and cache budgets, typed rejections
 * (unknown tenant, quota, injected service-enqueue fault), per-tenant
 * metrics, and workload-trace parse + replay.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "base/json.h"
#include "cache/template_cache.h"
#include "core/launch.h"
#include "fault/fault.h"
#include "obs/export.h"
#include "obs/families.h"
#include "obs/span.h"
#include "service/launch_service.h"
#include "service/tenant.h"
#include "service/trace_replay.h"

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

// ===================================================================
// TenantRegistry
// ===================================================================

TEST(TenantRegistryTest, ValidatesIdsAndWeights)
{
    service::TenantRegistry registry;
    EXPECT_EQ(registry.registerTenant("", {}).code(),
              ErrorCode::kInvalidArgument);
    service::TenantQuota zero_weight;
    zero_weight.weight = 0;
    EXPECT_EQ(registry.registerTenant("t", zero_weight).code(),
              ErrorCode::kInvalidArgument);

    service::TenantQuota quota;
    quota.weight = 3;
    quota.cache_share_bytes = 1000;
    ASSERT_TRUE(registry.registerTenant("t", quota).isOk());
    ASSERT_TRUE(registry.quota("t").has_value());
    EXPECT_EQ(registry.quota("t")->weight, 3u);
    EXPECT_FALSE(registry.quota("absent").has_value());

    // Re-registration updates in place.
    quota.weight = 5;
    ASSERT_TRUE(registry.registerTenant("t", quota).isOk());
    EXPECT_EQ(registry.quota("t")->weight, 5u);
    EXPECT_EQ(registry.ids().size(), 1u);
    EXPECT_EQ(registry.totalCacheShareBytes(), 1000u);
}

// ===================================================================
// LaunchService
// ===================================================================

TEST(LaunchServiceTest, UnknownTenantRejectsTyped)
{
    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::LaunchService svc(platform, registry);
    auto ticket = svc.submit("nobody", core::StrategyKind::kSeveriFastBz,
                             smallRequest());
    ASSERT_TRUE(ticket->ready());
    Result<core::LaunchResult> r = ticket->take();
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(LaunchServiceTest, RegisteredTenantsLaunchAndAreCounted)
{
    obs::ScopedEnable obs_on(/*metrics=*/true, /*tracing=*/false);
    obs::Registry::instance().reset();
    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::ServiceConfig config;
    config.workers = 2;
    service::LaunchService svc(platform, registry, config);

    service::TenantQuota quota;
    quota.weight = 2;
    ASSERT_TRUE(svc.registerTenant("alpha", quota).isOk());
    ASSERT_TRUE(svc.registerTenant("beta", quota).isOk());

    std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
    for (int i = 0; i < 3; ++i) {
        tickets.push_back(svc.submit(
            "alpha", core::StrategyKind::kSeveriFastBz, smallRequest()));
        tickets.push_back(svc.submit(
            "beta", core::StrategyKind::kSeveriFastBz, smallRequest()));
    }
    for (auto &ticket : tickets) {
        ASSERT_TRUE(ticket->take().isOk());
    }
    svc.drain();

    // Per-tenant counters: 3 submitted + 3 completed each, and the
    // latency histogram observed one sample per launch.
    for (const char *tenant : {"alpha", "beta"}) {
        EXPECT_EQ(obs::kServiceSubmitted.metric(tenant).value(), 3u)
            << tenant;
        EXPECT_EQ(obs::kServiceCompleted.metric(tenant).value(), 3u)
            << tenant;
        EXPECT_EQ(obs::kServiceRejected.metric(tenant).value(), 0u)
            << tenant;
        EXPECT_EQ(obs::kServiceLatencyNs.metric(tenant).snapshot().count,
                  3u)
            << tenant;
    }
}

TEST(LaunchServiceTest, QuotaShareProgramsCacheBudgets)
{
    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::LaunchService svc(platform, registry);

    service::TenantQuota a;
    a.cache_share_bytes = 6u << 20;
    service::TenantQuota b;
    b.cache_share_bytes = 2u << 20;
    ASSERT_TRUE(svc.registerTenant("a", a).isOk());
    ASSERT_TRUE(svc.registerTenant("b", b).isOk());

    cache::TemplateCache &cache = platform.templateCache();
    EXPECT_EQ(cache.capacityBytes(), 8u << 20)
        << "global budget = sum of tenant shares";
}

TEST(LaunchServiceTest, ServiceEnqueueFaultRejectsTyped)
{
    Result<fault::FaultPlan> plan =
        fault::FaultPlan::parse("service-enqueue:nth=1");
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    fault::ScopedFaultPlan armed(plan.take());

    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::LaunchService svc(platform, registry);
    ASSERT_TRUE(svc.registerTenant("t", {}).isOk());

    // First submit hits the injected fault; second proceeds normally.
    auto faulted = svc.submit("t", core::StrategyKind::kSeveriFastBz,
                              smallRequest());
    ASSERT_TRUE(faulted->ready());
    Result<core::LaunchResult> r = faulted->take();
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);

    auto ok = svc.submit("t", core::StrategyKind::kSeveriFastBz,
                         smallRequest());
    EXPECT_TRUE(ok->take().isOk());
}

TEST(LaunchServiceTest, TenantQuotaRejectionCountsPerTenant)
{
    obs::ScopedEnable obs_on(/*metrics=*/true, /*tracing=*/false);
    obs::Registry::instance().reset();
    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::ServiceConfig config;
    config.workers = 1;
    service::LaunchService svc(platform, registry, config);

    service::TenantQuota tight;
    tight.max_queued = 1;
    ASSERT_TRUE(svc.registerTenant("tight", tight).isOk());

    std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
    for (int i = 0; i < 6; ++i) {
        tickets.push_back(svc.submit(
            "tight", core::StrategyKind::kSeveriFastBz, smallRequest()));
    }
    u64 rejected = 0;
    for (auto &ticket : tickets) {
        Result<core::LaunchResult> r = ticket->take();
        if (!r.isOk()) {
            EXPECT_EQ(r.status().code(), ErrorCode::kQuotaExceeded);
            rejected++;
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_EQ(obs::kServiceRejected.metric("tight").value(), rejected);
}

TEST(LaunchServiceTest, OverQuotaSubmitDoesNotWaitForAQueueSlot)
{
    // One worker held inside launch X, and a full two-slot queue (a1,
    // b1): tenant a already has its one queued launch, so a2 must be
    // refused at once, not after X finishes and frees a slot.
    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::ServiceConfig config;
    config.workers = 1;
    config.queue_depth = 2;
    service::LaunchService svc(platform, registry, config);
    service::TenantQuota one;
    one.max_queued = 1;
    ASSERT_TRUE(svc.registerTenant("a", one).isOk());
    ASSERT_TRUE(svc.registerTenant("b", {}).isOk());

    // The test owns X's template build, so the worker waits in the
    // cache's single-flight lookup until the key is abandoned.
    constexpr core::StrategyKind kKind = core::StrategyKind::kSeveriFastBz;
    cache::TemplateCache &cache = platform.templateCache();
    const cache::LaunchKey key =
        core::buildLaunchKey(platform, smallRequest(), kKind);
    ASSERT_TRUE(cache.beginLookup(key).claimed);
    auto x = svc.submit("b", kKind, smallRequest());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (cache.stats().single_flight_waits < 1 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (cache.stats().single_flight_waits < 1) {
        cache.abandon(key);
        FAIL() << "launch X never reached the template lookup";
    }
    auto a1 = svc.submit("a", kKind, smallRequest());
    auto b1 = svc.submit("b", kKind, smallRequest());

    std::promise<std::shared_ptr<core::LaunchTicket>> submitted;
    std::future<std::shared_ptr<core::LaunchTicket>> a2 =
        submitted.get_future();
    std::thread helper([&] {
        submitted.set_value(svc.submit("a", kKind, smallRequest()));
    });
    const bool returned =
        a2.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    EXPECT_TRUE(returned) << "over-quota submit blocked on a full queue";
    if (returned) {
        std::shared_ptr<core::LaunchTicket> ticket = a2.get();
        EXPECT_TRUE(ticket->ready());
        EXPECT_EQ(ticket->take().status().code(),
                  ErrorCode::kQuotaExceeded);
        EXPECT_FALSE(x->ready()) << "the worker must still be held";
    }
    cache.abandon(key);
    helper.join();
    svc.drain();
    for (auto *ticket : {&x, &a1, &b1}) {
        EXPECT_TRUE((*ticket)->take().isOk());
    }
}

TEST(LaunchServiceTest, UnknownTenantIdsDoNotGrowTheMetricsRegistry)
{
    // Metrics stay off: registering a series does not need them, so an
    // unknown id must not reach the registry at all.
    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::LaunchService svc(platform, registry);
    std::size_t before = obs::Registry::instance().snapshot().size();
    for (int i = 0; i < 100; ++i) {
        auto ticket = svc.submit("ghost-" + std::to_string(i),
                                 core::StrategyKind::kSeveriFastBz,
                                 smallRequest());
        EXPECT_EQ(ticket->take().status().code(), ErrorCode::kNotFound);
    }
    EXPECT_LE(obs::Registry::instance().snapshot().size(), before + 1);
}

TEST(LaunchServiceTest, PerTenantCountersAddUp)
{
    // submitted == completed + failed + rejected for every series, over
    // a run that mixes completions, quota rejections, an injected
    // service-enqueue fault and unknown tenants.
    obs::ScopedEnable obs_on(/*metrics=*/true, /*tracing=*/false);
    obs::Registry::instance().reset();
    Result<fault::FaultPlan> plan =
        fault::FaultPlan::parse("service-enqueue:nth=1");
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    fault::ScopedFaultPlan armed(plan.take());

    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::ServiceConfig config;
    config.workers = 1;
    service::LaunchService svc(platform, registry, config);
    service::TenantQuota tight;
    tight.max_queued = 1;
    ASSERT_TRUE(svc.registerTenant("tight", tight).isOk());

    std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
    for (int i = 0; i < 6; ++i) {
        tickets.push_back(svc.submit(
            "tight", core::StrategyKind::kSeveriFastBz, smallRequest()));
    }
    for (const char *ghost : {"ghost-a", "ghost-b"}) {
        tickets.push_back(svc.submit(
            ghost, core::StrategyKind::kSeveriFastBz, smallRequest()));
    }
    u64 completed = 0;
    u64 quota = 0;
    u64 faulted = 0;
    u64 unknown = 0;
    for (auto &ticket : tickets) {
        Result<core::LaunchResult> r = ticket->take();
        if (r.isOk()) {
            completed++;
            continue;
        }
        switch (r.status().code()) {
        case ErrorCode::kQuotaExceeded:
            quota++;
            break;
        case ErrorCode::kUnavailable:
            faulted++;
            break;
        case ErrorCode::kNotFound:
            unknown++;
            break;
        default:
            ADD_FAILURE() << r.status().toString();
        }
    }
    svc.drain();
    EXPECT_GT(completed, 0u);
    EXPECT_GT(quota, 0u);
    EXPECT_EQ(faulted, 1u);
    EXPECT_EQ(unknown, 2u);

    auto count = [](const obs::CounterFamily &family,
                    const std::string &tenant) {
        return family.metric(tenant).value();
    };
    for (const char *tenant : {"tight", ""}) {
        SCOPED_TRACE("tenant=\"" + std::string(tenant) + "\"");
        EXPECT_EQ(count(obs::kServiceSubmitted, tenant),
                  count(obs::kServiceCompleted, tenant) +
                      count(obs::kServiceFailed, tenant) +
                      count(obs::kServiceRejected, tenant));
    }
    EXPECT_EQ(count(obs::kServiceSubmitted, "tight"), 6u);
    EXPECT_EQ(count(obs::kServiceSubmitted, ""), 2u);
    EXPECT_EQ(count(obs::kServiceRejected, ""), 2u);
}

TEST(LaunchServiceTest, ShutdownRejectsBlockedSubmit)
{
    // One worker and a one-slot queue: a third submit blocks until the
    // first launch finishes. Destroying the service wakes it; the ticket
    // resolves kUnavailable and counts as rejected (it never ran), not
    // as failed. If the worker freed the slot first, the submit was
    // admitted normally; either way the counters equal the outcomes.
    obs::ScopedEnable obs_on(/*metrics=*/true, /*tracing=*/false);
    obs::Registry::instance().reset();
    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
    std::shared_ptr<core::LaunchTicket> blocked;
    std::thread submitter;
    {
        service::ServiceConfig config;
        config.workers = 1;
        config.queue_depth = 1;
        service::LaunchService svc(platform, registry, config);
        ASSERT_TRUE(svc.registerTenant("t", {}).isOk());
        for (int i = 0; i < 2; ++i) {
            tickets.push_back(svc.submit(
                "t", core::StrategyKind::kSeveriFastBz, smallRequest()));
        }
        submitter = std::thread([&svc, &blocked] {
            blocked = svc.submit("t", core::StrategyKind::kSeveriFastBz,
                                 smallRequest());
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    submitter.join();
    for (auto &ticket : tickets) {
        EXPECT_TRUE(ticket->take().isOk());
    }
    ASSERT_NE(blocked, nullptr);
    Result<core::LaunchResult> r = blocked->take();
    u64 rejected = 0;
    if (!r.isOk()) {
        EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable)
            << r.status().toString();
        EXPECT_EQ(blocked->outcome(), core::LaunchOutcome::kRejected);
        rejected = 1;
    } else {
        EXPECT_EQ(blocked->outcome(), core::LaunchOutcome::kCompleted);
    }
    EXPECT_EQ(obs::kServiceRejected.metric("t").value(), rejected);
    EXPECT_EQ(obs::kServiceFailed.metric("t").value(), 0u);
    EXPECT_EQ(obs::kServiceCompleted.metric("t").value(), 3 - rejected);
}

TEST(LaunchServiceTest, ClosedLoopTenantCannotStarveABacklog)
{
    // One worker, a standing heavy backlog at equal weight, and a light
    // tenant that resubmits the moment each launch resolves. An emptied
    // tenant goes to the DRR ring's tail, so the two alternate: N light
    // launches let at least N heavy ones through, whichever thread wins
    // the race to the next dispatch (any core count).
    constexpr int kLight = 6;
    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::ServiceConfig config;
    config.workers = 1;
    config.queue_depth = 4 * kLight;
    service::LaunchService svc(platform, registry, config);
    ASSERT_TRUE(svc.registerTenant("heavy", {}).isOk());
    ASSERT_TRUE(svc.registerTenant("light", {}).isOk());

    std::vector<std::shared_ptr<core::LaunchTicket>> heavy;
    for (int i = 0; i < 2 * kLight; ++i) {
        heavy.push_back(svc.submit("heavy", core::StrategyKind::kSeveriFastBz,
                                   smallRequest()));
    }
    // The first heavy launch builds the template; light runs warm.
    ASSERT_TRUE(heavy[0]->take().isOk());
    for (int i = 0; i < kLight; ++i) {
        ASSERT_TRUE(svc.submit("light", core::StrategyKind::kSeveriFastBz,
                               smallRequest())
                        ->take()
                        .isOk());
    }
    int heavy_done = static_cast<int>(
        std::count_if(heavy.begin(), heavy.end(),
                      [](const auto &ticket) { return ticket->ready(); }));
    EXPECT_GE(heavy_done, kLight)
        << "a closed-loop light tenant must not win every dispatch";
}

// ===================================================================
// Workload-trace parse
// ===================================================================

TEST(TraceParseTest, ParsesTenantsEventsAndDefaults)
{
    const char *text = R"({
      "defaults": {"scale": 0.03125},
      "tenants": [
        {"id": "a", "weight": 4, "max_queued": 8,
         "cache_share_bytes": 1048576},
        {"id": "b"}
      ],
      "events": [
        {"tenant": "a", "strategy": "severifast", "at_us": 0},
        {"tenant": "b", "strategy": "stock", "at_us": 250,
         "scale": 0.0625}
      ]
    })";
    Result<service::WorkloadTrace> trace =
        service::WorkloadTrace::parse(text);
    ASSERT_TRUE(trace.isOk()) << trace.status().toString();
    ASSERT_EQ(trace->tenants.size(), 2u);
    EXPECT_EQ(trace->tenants[0].first, "a");
    EXPECT_EQ(trace->tenants[0].second.weight, 4u);
    EXPECT_EQ(trace->tenants[0].second.max_queued, 8u);
    EXPECT_EQ(trace->tenants[0].second.cache_share_bytes, 1048576u);
    EXPECT_EQ(trace->tenants[1].second.weight, 1u);
    ASSERT_EQ(trace->events.size(), 2u);
    EXPECT_EQ(trace->events[0].strategy,
              core::StrategyKind::kSeveriFastBz);
    EXPECT_DOUBLE_EQ(trace->events[0].scale, 0.03125);
    EXPECT_EQ(trace->events[1].strategy,
              core::StrategyKind::kStockFirecracker);
    EXPECT_EQ(trace->events[1].at_us, 250u);
    EXPECT_DOUBLE_EQ(trace->events[1].scale, 0.0625);
}

TEST(TraceParseTest, RejectsMalformedTraces)
{
    const char *bad[] = {
        "[]",
        R"({"tenants": [], "events": []})",
        R"({"tenants": [{"id": "a"}], "events": []})",
        R"({"tenants": [{"id": "a"}, {"id": "a"}],
            "events": [{"tenant": "a", "strategy": "severifast",
                        "at_us": 0}]})",
        R"({"tenants": [{"id": "a"}],
            "events": [{"tenant": "ghost", "strategy": "severifast",
                        "at_us": 0}]})",
        R"({"tenants": [{"id": "a"}],
            "events": [{"tenant": "a", "strategy": "warp9",
                        "at_us": 0}]})",
        R"({"tenants": [{"id": "a"}],
            "events": [{"tenant": "a", "strategy": "severifast"}]})",
        R"({"tenants": [{"id": "a", "weight": 0}],
            "events": [{"tenant": "a", "strategy": "severifast",
                        "at_us": 0}]})",
        R"({"tenants": [{"id": "a"}],
            "events": [{"tenant": "a", "strategy": "severifast",
                        "at_us": 0, "scale": 2.0}]})",
    };
    for (const char *text : bad) {
        Result<service::WorkloadTrace> trace =
            service::WorkloadTrace::parse(text);
        EXPECT_FALSE(trace.isOk()) << text;
    }
}

// ===================================================================
// Replay
// ===================================================================

TEST(TraceReplayTest, ReplayReportsPerTenantOutcomes)
{
    const char *text = R"({
      "defaults": {"scale": 0.03125},
      "tenants": [
        {"id": "heavy", "weight": 1},
        {"id": "light", "weight": 4}
      ],
      "events": [
        {"tenant": "heavy", "strategy": "severifast", "at_us": 0},
        {"tenant": "heavy", "strategy": "severifast", "at_us": 0},
        {"tenant": "heavy", "strategy": "severifast", "at_us": 0},
        {"tenant": "heavy", "strategy": "severifast", "at_us": 0},
        {"tenant": "light", "strategy": "severifast", "at_us": 10},
        {"tenant": "light", "strategy": "severifast", "at_us": 20}
      ]
    })";
    Result<service::WorkloadTrace> trace =
        service::WorkloadTrace::parse(text);
    ASSERT_TRUE(trace.isOk()) << trace.status().toString();

    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::ServiceConfig config;
    config.workers = 2;
    service::LaunchService svc(platform, registry, config);

    // time_scale 0: submit back-to-back, preserving trace order.
    Result<service::ReplayReport> report =
        service::replayTrace(svc, *trace, /*time_scale=*/0.0);
    ASSERT_TRUE(report.isOk()) << report.status().toString();

    ASSERT_EQ(report->tenants.size(), 2u);
    u64 total_completed = 0;
    u64 total_warm = 0;
    for (const service::TenantReport &t : report->tenants) {
        EXPECT_EQ(t.completed, t.submitted) << t.tenant;
        EXPECT_EQ(t.rejected, 0u) << t.tenant;
        EXPECT_EQ(t.failed, 0u) << t.tenant;
        EXPECT_GE(t.p95_ns, t.p50_ns) << t.tenant;
        EXPECT_GE(t.max_ns, t.p95_ns) << t.tenant;
        total_completed += t.completed;
        total_warm += t.warm_hits;
    }
    EXPECT_EQ(total_completed, 6u);
    EXPECT_EQ(total_warm, 5u)
        << "identical requests collapse into one cold build";
    EXPECT_GT(report->latency_fairness, 0.0);
    EXPECT_LE(report->latency_fairness, 1.0 + 1e-9);

    // The JSON rendering round-trips through the repo's own parser.
    Result<base::JsonValue> parsed =
        base::parseJson(service::reportToJson(*report));
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    EXPECT_EQ(parsed->find("tenants")->asArray().size(), 2u);
}

TEST(TraceReplayTest, ReportEqualsMetricsUnderPspFaults)
{
    // The report and the sevf_service_* counters read one record per
    // ticket. Injected PSP faults can only fail a launch after dispatch,
    // and only the tight quota can reject one before it, so the
    // quota-less tenant reports no rejection.
    const char *text = R"({
      "defaults": {"scale": 0.03125},
      "tenants": [{"id": "tight", "max_queued": 1}, {"id": "open"}],
      "events": [
        {"tenant": "tight", "strategy": "severifast", "at_us": 0},
        {"tenant": "tight", "strategy": "severifast", "at_us": 0},
        {"tenant": "tight", "strategy": "severifast", "at_us": 0},
        {"tenant": "tight", "strategy": "severifast", "at_us": 0},
        {"tenant": "tight", "strategy": "severifast", "at_us": 0},
        {"tenant": "open", "strategy": "severifast", "at_us": 0},
        {"tenant": "open", "strategy": "severifast", "at_us": 0},
        {"tenant": "open", "strategy": "severifast", "at_us": 0},
        {"tenant": "open", "strategy": "severifast", "at_us": 0},
        {"tenant": "open", "strategy": "severifast", "at_us": 0}
      ]
    })";
    Result<service::WorkloadTrace> trace =
        service::WorkloadTrace::parse(text);
    ASSERT_TRUE(trace.isOk()) << trace.status().toString();

    obs::ScopedEnable obs_on(/*metrics=*/true, /*tracing=*/false);
    obs::Registry::instance().reset();
    Result<fault::FaultPlan> plan =
        fault::FaultPlan::parse("seed=3;psp:p=0.6");
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    fault::ScopedFaultPlan armed(plan.take());

    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::ServiceConfig config;
    config.workers = 2;
    service::LaunchService svc(platform, registry, config);
    Result<service::ReplayReport> report =
        service::replayTrace(svc, *trace, /*time_scale=*/0.0);
    ASSERT_TRUE(report.isOk()) << report.status().toString();

    auto count = [](const obs::CounterFamily &family,
                    const std::string &tenant) {
        return family.metric(tenant).value();
    };
    u64 failed = 0;
    for (const service::TenantReport &t : report->tenants) {
        SCOPED_TRACE(t.tenant);
        EXPECT_EQ(t.submitted, t.completed + t.rejected + t.failed);
        EXPECT_EQ(t.submitted, count(obs::kServiceSubmitted, t.tenant));
        EXPECT_EQ(t.completed, count(obs::kServiceCompleted, t.tenant));
        EXPECT_EQ(t.rejected, count(obs::kServiceRejected, t.tenant));
        EXPECT_EQ(t.failed, count(obs::kServiceFailed, t.tenant));
        if (t.tenant == "open") {
            EXPECT_EQ(t.rejected, 0u) << "nothing rejects a quota-less "
                                         "tenant behind a blocking queue";
        }
        failed += t.failed;
    }
    EXPECT_GT(failed, 0u) << "p=0.6 PSP faults exhaust retry budgets";
}

TEST(TraceReplayTest, RejectsBadTimeScale)
{
    core::Platform platform(sim::CostParams::deterministic());
    service::TenantRegistry registry;
    service::LaunchService svc(platform, registry);
    service::WorkloadTrace trace;
    Result<service::ReplayReport> report =
        service::replayTrace(svc, trace, -1.0);
    EXPECT_FALSE(report.isOk());
    EXPECT_EQ(report.status().code(), ErrorCode::kInvalidArgument);
}

} // namespace
} // namespace sevf
