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
 * Results merge into BENCH_wallclock.json under cache.hit_miss
 * (bench_wallclock owns the rest of the file).
 */
#include <memory>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "bench/common.h"

using namespace sevf;

namespace {

std::string
hexDigest(const crypto::Sha256Digest &d)
{
    static const char *kHex = "0123456789abcdef";
    std::string out;
    for (u8 b : d) {
        out += kHex[b >> 4];
        out += kHex[b & 0xf];
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs_session; // SEVF_TRACE_OUT/SEVF_METRICS_OUT
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_wallclock.json";

    bench::banner("cache", "launch-template hit vs cold (scale 0.25)");

    core::LaunchRequest request;
    request.scale = 0.25;
    request.host_threads = base::hardwareThreads();

    std::vector<bench::JsonObject> rows;
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

        bench::JsonObject o;
        o.field("name", core::strategyName(kind))
            .field("cold_seconds", cold_seconds)
            .field("hit_seconds", hit_seconds)
            .field("speedup", speedup)
            .field("bit_identical", identical)
            .field("measurement", hexDigest(hit.measurement));
        rows.push_back(o);
    }
    table.print();
    bench::note("hit skips parse/decompress/hash/pre-encrypt; the "
                "remaining work is CoW instantiation + premeasured "
                "digest replay, and the measurement stays identical");

    bench::JsonObject section;
    section.field("scale", 0.25).raw("strategies", bench::jsonArray(rows));
    bench::patchSection(out_path, "cache", "hit_miss", section.str());
    return 0;
}
