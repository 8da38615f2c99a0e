/**
 * @file
 * Shared bench-harness helpers.
 *
 * Methodology mirrors §6.1: each configuration is booted functionally
 * once (warm caches), then per-run samples are drawn by re-jittering
 * the nominal trace - the equivalent of the paper's 100 sequential
 * boots after 5 warmup boots.
 */
#ifndef SEVF_BENCH_COMMON_H_
#define SEVF_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "core/launch.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/cost_model.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace sevf::bench {

/** Paper-style run count (§6.1). */
inline constexpr int kRunsPerConfig = 100;

/** Run one functional launch; fatal on failure (benches must not lie). */
inline core::LaunchResult
runNominal(core::Platform &platform, core::StrategyKind kind,
           const core::LaunchRequest &request)
{
    Result<core::LaunchResult> result =
        core::makeStrategy(kind)->launch(platform, request);
    if (!result.isOk()) {
        fatal("launch failed (", core::strategyName(kind),
              "): ", result.status().toString());
    }
    return result.take();
}

/** Draw @p n jittered total-time samples from a nominal result. */
inline std::vector<sim::Duration>
sampleTotals(const core::LaunchResult &nominal, const sim::CostModel &model,
             int n, u64 seed)
{
    Rng rng(seed);
    std::vector<sim::Duration> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i) {
        out.push_back(sim::jitterTrace(nominal.trace, model, rng).total());
    }
    return out;
}

/** Section banner shared by all bench binaries. */
inline void
banner(const char *figure, const char *title)
{
    std::printf("\n=== %s: %s ===\n", figure, title);
}

/** "paper reports X, we measure Y" footnote line. */
inline void
note(const char *text)
{
    std::printf("  note: %s\n", text);
}

/**
 * Persist machine-readable results next to the console output, like
 * the paper artifact's severifast/data directory. Files land in
 * ./bench_data/<name>.
 */
inline void
writeDataFile(const std::string &name, const std::string &contents)
{
    std::error_code ec;
    std::filesystem::create_directories("bench_data", ec);
    std::ofstream out("bench_data/" + name);
    if (!out) {
        warn("could not write bench_data/", name);
        return;
    }
    out << contents;
    std::printf("  data: bench_data/%s\n", name.c_str());
}

// ---- Wall-clock timing ---------------------------------------------------
//
// Most benches here report *virtual* time from the cost model; the gate
// benches that time the real serving path (template cache, admission
// pipeline, service scheduler) read host wall-clock time from here.

/** Monotonic wall-clock time in seconds. */
inline double
wallClock()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Opt-in observability for any bench binary: set SEVF_TRACE_OUT and/or
 * SEVF_METRICS_OUT in the environment and the run records spans/metrics
 * and writes the export(s) when main() returns. With neither variable
 * set this is inert — obs stays disabled and the bench numbers are the
 * same as without the hook (the disabled-cost contract in
 * docs/OBSERVABILITY.md §costs).
 *
 *   SEVF_TRACE_OUT=fig10.json ./bench_fig10_breakdown_table
 */
class ObsSession
{
  public:
    ObsSession()
        : trace_out_(envOr("SEVF_TRACE_OUT")),
          metrics_out_(envOr("SEVF_METRICS_OUT"))
    {
        if (!metrics_out_.empty()) {
            obs::setMetricsEnabled(true);
        }
        if (!trace_out_.empty()) {
            obs::setMetricsEnabled(true); // traces embed counter samples
            obs::setTracingEnabled(true);
        }
    }

    ~ObsSession()
    {
        if (!trace_out_.empty()) {
            reportWrite(obs::writeTraceFile(trace_out_), trace_out_);
        }
        if (!metrics_out_.empty()) {
            reportWrite(obs::writeMetricsFile(metrics_out_), metrics_out_);
        }
    }

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

  private:
    static std::string
    envOr(const char *name)
    {
        const char *v = std::getenv(name);
        return v != nullptr ? std::string(v) : std::string();
    }

    static void
    reportWrite(const Status &st, const std::string &path)
    {
        if (st.isOk()) {
            std::fprintf(stderr, "# obs export: %s\n", path.c_str());
        } else {
            std::fprintf(stderr, "# obs export failed: %s\n",
                         st.toString().c_str());
        }
    }

    std::string trace_out_;
    std::string metrics_out_;
};

} // namespace sevf::bench

#endif // SEVF_BENCH_COMMON_H_
