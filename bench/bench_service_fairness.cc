/**
 * @file
 * Serving-layer gate: DRR fairness under a skewed tenant mix, recorded
 * in bench_data/bench_service_fairness.json.
 *
 * A light tenant submits sparse launches against a heavy tenant with
 * 8x its volume already queued in the same LaunchService. The deficit
 * round-robin scheduler must keep the light tenant's p50 latency within
 * 2x of its solo (uncontended) p50. At equal weights the two alternate,
 * so each light launch waits only for the heavy launch in service when
 * it arrives. A seeded delay in [0, solo p50) before each light submit
 * makes that arrival a uniform point within the heavy launch, so the
 * expected wait is half a service time and the expected ratio ~1.5x,
 * whichever thread wins the race to the next dispatch. (Submitting at
 * once would arrive just as the next heavy launch starts: ~2x, the
 * bound itself, or ~1x on one core.) A FIFO queue would park it behind
 * the entire heavy backlog. One worker, and a queue deep enough that
 * submit() never blocks, so the measurement isolates scheduling from
 * backpressure and from host-core time sharing.
 */
#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "base/json.h"
#include "base/rng.h"
#include "bench/common.h"
#include "service/launch_service.h"
#include "workload/synthetic.h"

using namespace sevf;

namespace {

/** p-th percentile (nearest-rank) in seconds, 0 if empty. */
double
percentileSec(std::vector<double> sample, double p)
{
    if (sample.empty()) {
        return 0;
    }
    std::sort(sample.begin(), sample.end());
    double rank = p * static_cast<double>(sample.size() - 1);
    return sample[static_cast<std::size_t>(rank + 0.5)];
}

core::LaunchRequest
benchRequest()
{
    core::LaunchRequest req;
    req.kernel = workload::KernelConfig::kAws;
    req.scale = 1.0 / 32.0;
    req.attest = false;
    return req;
}

/** Submit-then-take one launch, fatal on failure; returns seconds. */
double
timedLaunch(service::LaunchService &svc, const std::string &tenant)
{
    double t0 = bench::wallClock();
    auto ticket = svc.submit(tenant, core::StrategyKind::kSeveriFastBz,
                             benchRequest());
    Result<core::LaunchResult> r = ticket->take();
    if (!r.isOk()) {
        fatal("solo launch failed: ", r.status().toString());
    }
    return bench::wallClock() - t0;
}

} // namespace

int
main()
{
    bench::ObsSession obs_session; // SEVF_TRACE_OUT/SEVF_METRICS_OUT

    bench::banner("Service fairness",
                  "light-tenant p50 against an 8:1 heavy backlog (DRR)");
    constexpr int kRounds = 16;
    constexpr int kLightPerRound = 8;
    constexpr int kLightSamples = kRounds * kLightPerRound;
    constexpr int kHeavyBacklog = 8 * kLightPerRound;

    // Two one-worker services on their own platforms, never busy at
    // the same time: "solo" serves the light tenant alone (sequential
    // submits, so its p50 is pure service time), "mixed" adds a heavy
    // tenant at equal DRR weight — the scheduler, not a tilted quota,
    // must protect the light tenant. Solo and mixed blocks alternate
    // over kRounds, so a change in host speed during the run moves both
    // p50s alike instead of the ratio.
    core::Platform solo_platform(sim::CostParams::deterministic());
    service::TenantRegistry solo_registry;
    service::ServiceConfig solo_config;
    solo_config.workers = 1;
    service::LaunchService solo(solo_platform, solo_registry, solo_config);
    core::Platform mixed_platform(sim::CostParams::deterministic());
    service::TenantRegistry mixed_registry;
    service::ServiceConfig mixed_config;
    mixed_config.workers = 1;
    mixed_config.queue_depth = kHeavyBacklog + kLightPerRound + 8;
    service::LaunchService mixed(mixed_platform, mixed_registry,
                                 mixed_config);
    if (!solo.registerTenant("light", {}).isOk() ||
        !mixed.registerTenant("light", {}).isOk() ||
        !mixed.registerTenant("heavy", {}).isOk()) {
        fatal("registerTenant failed");
    }
    (void)timedLaunch(solo, "light");  // cold build, warms the cache
    (void)timedLaunch(mixed, "heavy"); // warm the shared template

    std::vector<double> solo_samples;
    std::vector<double> mixed_samples;
    Rng arrivals(7);
    for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kLightPerRound; ++i) {
            solo_samples.push_back(timedLaunch(solo, "light"));
        }
        double solo_so_far = percentileSec(solo_samples, 0.50);
        // The heavy backlog is queued first (the queue is deep enough
        // that nothing blocks in submit), then each light launch is
        // submitted after its seeded delay and awaited while the
        // backlog drains around it.
        std::vector<std::shared_ptr<core::LaunchTicket>> heavy_tickets;
        heavy_tickets.reserve(kHeavyBacklog);
        for (int i = 0; i < kHeavyBacklog; ++i) {
            heavy_tickets.push_back(
                mixed.submit("heavy", core::StrategyKind::kSeveriFastBz,
                             benchRequest()));
        }
        for (int i = 0; i < kLightPerRound; ++i) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                arrivals.nextDouble() * solo_so_far));
            mixed_samples.push_back(timedLaunch(mixed, "light"));
        }
        // The gate is meaningless if the backlog drained before the
        // last light sample: there would have been nothing to contend
        // with.
        if (heavy_tickets.back()->ready()) {
            fatal("heavy backlog drained mid-measurement in round ",
                  round, "; raise kHeavyBacklog");
        }
        for (auto &ticket : heavy_tickets) {
            Result<core::LaunchResult> r = ticket->take();
            if (!r.isOk()) {
                fatal("heavy launch failed: ", r.status().toString());
            }
        }
    }
    double solo_p50 = percentileSec(solo_samples, 0.50);
    double mixed_light_p50 = percentileSec(mixed_samples, 0.50);

    double fairness_ratio =
        solo_p50 > 0 ? mixed_light_p50 / solo_p50 : 0.0;
    bool meets_2x = fairness_ratio > 0 && fairness_ratio <= 2.0;
    std::printf("  solo light p50:        %8.2f ms\n", solo_p50 * 1e3);
    std::printf("  mixed light p50 (8:1): %8.2f ms  (%.2fx solo)\n",
                mixed_light_p50 * 1e3, fairness_ratio);
    bench::note("equal DRR weights: light and heavy alternate, so a "
                "light launch waits out only the heavy launch in service "
                "(~1.5x expected); FIFO would queue it behind the whole "
                "backlog");
    if (!meets_2x) {
        fatal("fairness gate failed: light p50 ", fairness_ratio,
              "x solo (limit 2x)");
    }

    base::JsonWriter json;
    json.beginObject();
    json.key("rounds").value(u64{kRounds});
    json.key("light_samples").value(u64{kLightSamples});
    json.key("heavy_backlog").value(u64{kHeavyBacklog});
    json.key("solo_p50_seconds").value(solo_p50);
    json.key("mixed_light_p50_seconds").value(mixed_light_p50);
    json.key("light_p50_vs_solo").value(fairness_ratio);
    json.key("meets_2x").value(meets_2x);
    json.endObject();
    bench::writeDataFile("bench_service_fairness.json", json.take() + "\n");
    return 0;
}
