/**
 * @file
 * Template-cache hit-vs-miss wall clock, per strategy.
 *
 * For every boot strategy: boot once cold on a fresh Platform (the
 * template build + publish), boot the identical request again on the
 * same Platform (the cache hit), and boot once more on a fresh
 * Platform with the cache bypassed (the cold reference). The hit must
 * be bit-identical to cold — same launch measurement, same virtual
 * boot time, same step count — or the bench aborts: a cache that
 * changes what the guest owner attests is not a cache, it is a bug.
 *
 * The per-strategy record lands in bench_data/bench_cache_hit.json.
 */
#include <string>

#include "base/bytes.h"
#include "base/json.h"
#include "base/parallel.h"
#include "bench/common.h"

using namespace sevf;

int
main()
{
    bench::ObsSession obs_session; // SEVF_TRACE_OUT/SEVF_METRICS_OUT

    bench::banner("cache", "launch-template hit vs cold (scale 0.25)");

    core::LaunchRequest request;
    request.scale = 0.25;
    request.host_threads = base::hardwareThreads();

    base::JsonWriter json;
    json.beginObject().key("scale").value(request.scale);
    json.key("strategies").beginArray();
    stats::Table table(
        {"strategy", "cold", "hit", "speedup", "bit-identical"});
    for (core::StrategyKind kind : {
             core::StrategyKind::kStockFirecracker,
             core::StrategyKind::kQemuOvmfSev,
             core::StrategyKind::kSevDirectBoot,
             core::StrategyKind::kSeveriFastBz,
             core::StrategyKind::kSeveriFastVmlinux,
         }) {
        // Cold boot that builds + publishes the template.
        core::Platform platform;
        double t0 = bench::wallClock();
        core::LaunchResult cold = bench::runNominal(platform, kind, request);
        double cold_seconds = bench::wallClock() - t0;
        if (cold.cache_hit) {
            fatal("first launch reported a cache hit (",
                  core::strategyName(kind), ")");
        }

        // Identical request on the same Platform: the cache hit.
        t0 = bench::wallClock();
        core::LaunchResult hit = bench::runNominal(platform, kind, request);
        double hit_seconds = bench::wallClock() - t0;
        if (!hit.cache_hit) {
            fatal("second launch missed the template cache (",
                  core::strategyName(kind), ")");
        }

        // Cold reference with the cache bypassed, on a fresh Platform.
        core::Platform reference_platform;
        core::LaunchRequest no_cache = request;
        no_cache.use_template_cache = false;
        core::LaunchResult reference =
            bench::runNominal(reference_platform, kind, no_cache);

        bool identical =
            hit.measurement == cold.measurement &&
            hit.measurement == reference.measurement &&
            hit.totalTime().toMsF() == cold.totalTime().toMsF() &&
            hit.trace.steps().size() == cold.trace.steps().size();
        if (!identical) {
            fatal("cache hit is not bit-identical to cold (",
                  core::strategyName(kind),
                  "): measurement/virtual-time/step mismatch");
        }

        double speedup =
            hit_seconds > 0 ? cold_seconds / hit_seconds : 0.0;
        char speedup_text[32];
        std::snprintf(speedup_text, sizeof(speedup_text), "%.1fx", speedup);
        table.addRow({core::strategyName(kind),
                      stats::fmtMs(cold_seconds * 1e3),
                      stats::fmtMs(hit_seconds * 1e3), speedup_text,
                      identical ? "yes" : "NO"});

        json.beginObject();
        json.key("name").value(core::strategyName(kind));
        json.key("cold_seconds").value(cold_seconds);
        json.key("hit_seconds").value(hit_seconds);
        json.key("speedup").value(speedup);
        json.key("bit_identical").value(identical);
        json.key("measurement").value(toHex(hit.measurement));
        json.endObject();
    }
    json.endArray().endObject();
    table.print();
    bench::note("hit skips parse/decompress/hash/pre-encrypt; the "
                "remaining work is CoW instantiation + premeasured "
                "digest replay, and the measurement stays identical");

    bench::writeDataFile("bench_cache_hit.json", json.take() + "\n");
    return 0;
}
