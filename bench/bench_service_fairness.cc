/**
 * @file
 * Serving-layer gate: DRR fairness under a skewed tenant mix, recorded
 * in bench_data/bench_service_fairness.json.
 *
 * A light tenant submits sparse launches against a heavy tenant with
 * 8x its volume already queued in the same LaunchService. The deficit
 * round-robin scheduler must keep the light tenant's p50 latency within
 * 2x of its solo (uncontended) p50: an entering tenant takes the ring
 * head, so each light launch waits only for the in-service launch
 * (~0.5 service times expected) before running. A FIFO queue would
 * park it behind the entire heavy backlog. One worker, and a queue deep
 * enough that submit() never blocks, so the measurement isolates
 * scheduling from backpressure and from host-core time sharing.
 */
#include <algorithm>
#include <vector>

#include "base/json.h"
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
    constexpr int kLightSamples = 16;
    constexpr int kHeavyBacklog = 8 * kLightSamples;

    // Solo baseline: the light tenant alone, sequential submits, so the
    // p50 is pure service time with no queueing (self-inflicted or
    // otherwise).
    double solo_p50 = 0;
    {
        core::Platform platform(sim::CostParams::deterministic());
        service::TenantRegistry registry;
        service::ServiceConfig config;
        config.workers = 1;
        service::LaunchService svc(platform, registry, config);
        if (!svc.registerTenant("light", {}).isOk()) {
            fatal("registerTenant failed");
        }
        (void)timedLaunch(svc, "light"); // cold build, warms the cache
        std::vector<double> samples;
        for (int i = 0; i < kLightSamples; ++i) {
            samples.push_back(timedLaunch(svc, "light"));
        }
        solo_p50 = percentileSec(samples, 0.50);
    }

    // Mixed run, equal DRR weights — the scheduler, not a tilted quota,
    // must protect the light tenant. The heavy backlog is queued first
    // (the queue is deep enough that nothing blocks in submit), then
    // each light launch is submitted and awaited while the backlog
    // drains around it.
    double mixed_light_p50 = 0;
    u64 heavy_done_at_finish = 0;
    {
        core::Platform platform(sim::CostParams::deterministic());
        service::TenantRegistry registry;
        service::ServiceConfig config;
        config.workers = 1;
        config.queue_depth = kHeavyBacklog + kLightSamples + 8;
        service::LaunchService svc(platform, registry, config);
        if (!svc.registerTenant("light", {}).isOk() ||
            !svc.registerTenant("heavy", {}).isOk()) {
            fatal("registerTenant failed");
        }
        (void)timedLaunch(svc, "heavy"); // warm the shared template
        std::vector<std::shared_ptr<core::LaunchTicket>> heavy_tickets;
        heavy_tickets.reserve(kHeavyBacklog);
        for (int i = 0; i < kHeavyBacklog; ++i) {
            heavy_tickets.push_back(
                svc.submit("heavy", core::StrategyKind::kSeveriFastBz,
                           benchRequest()));
        }
        std::vector<double> light;
        for (int i = 0; i < kLightSamples; ++i) {
            light.push_back(timedLaunch(svc, "light"));
        }
        heavy_done_at_finish = svc.pipeline().stats().completed;
        mixed_light_p50 = percentileSec(light, 0.50);
        for (auto &ticket : heavy_tickets) {
            Result<core::LaunchResult> r = ticket->take();
            if (!r.isOk()) {
                fatal("heavy launch failed: ", r.status().toString());
            }
        }
        // The gate is meaningless if the backlog drained before the
        // last light sample: there would have been nothing to contend
        // with. completed counts the warm-up + light launches too, so
        // a full backlog would push it past kHeavyBacklog.
        if (heavy_done_at_finish >= static_cast<u64>(kHeavyBacklog)) {
            fatal("heavy backlog drained mid-measurement (completed=",
                  heavy_done_at_finish, "); raise kHeavyBacklog");
        }
    }

    double fairness_ratio =
        solo_p50 > 0 ? mixed_light_p50 / solo_p50 : 0.0;
    bool meets_2x = fairness_ratio > 0 && fairness_ratio <= 2.0;
    std::printf("  solo light p50:        %8.2f ms\n", solo_p50 * 1e3);
    std::printf("  mixed light p50 (8:1): %8.2f ms  (%.2fx solo)\n",
                mixed_light_p50 * 1e3, fairness_ratio);
    bench::note("equal DRR weights: the ring-head entry for an idle "
                "tenant, not a quota tilt, keeps the light tenant's "
                "slot; FIFO would queue it behind the whole backlog");
    if (!meets_2x) {
        fatal("fairness gate failed: light p50 ", fairness_ratio,
              "x solo (limit 2x)");
    }

    base::JsonWriter json;
    json.beginObject();
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
