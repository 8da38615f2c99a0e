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
#include <iterator>
#include <string>
#include <vector>

#include "base/logging.h"
#include "core/launch.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/cost_model.h"
#include "stats/json.h"
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
// Most benches here report *virtual* time from the cost model; these
// helpers are for the benches that measure the real kernels (XEX,
// SHA-256, LZ4, the parallel launch pipeline) in host wall-clock time.

/** Monotonic wall-clock time in seconds. */
inline double
wallClock()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Run @p fn @p reps times and return the best (minimum) wall-clock
 * duration in seconds — the standard estimator for a quiet machine.
 */
template <typename Fn>
inline double
bestOf(int reps, Fn &&fn)
{
    double best = 0;
    for (int i = 0; i < reps; ++i) {
        double t0 = wallClock();
        fn();
        double dt = wallClock() - t0;
        if (i == 0 || dt < best) {
            best = dt;
        }
    }
    return best;
}

inline double
mbPerSec(u64 bytes, double seconds)
{
    return seconds > 0 ? static_cast<double>(bytes) / (1e6 * seconds) : 0.0;
}

// ---- JSON emission -------------------------------------------------------

/**
 * Minimal JSON object builder: flat string/number/bool fields plus raw
 * splicing for nested arrays/objects. Enough for bench result files;
 * not a general serializer.
 */
class JsonObject
{
  public:
    JsonObject &
    field(std::string_view key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        return raw(key, buf);
    }

    JsonObject &
    field(std::string_view key, u64 v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    field(std::string_view key, int v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    field(std::string_view key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    /** Without this overload a string literal would pick field(bool). */
    JsonObject &
    field(std::string_view key, const char *v)
    {
        return field(key, std::string_view(v));
    }

    JsonObject &
    field(std::string_view key, std::string_view v)
    {
        std::string quoted = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\') {
                quoted += '\\';
            }
            quoted += c;
        }
        quoted += '"';
        return raw(key, quoted);
    }

    /** Splice an already-serialized JSON value (array, object). */
    JsonObject &
    raw(std::string_view key, std::string_view json)
    {
        if (!body_.empty()) {
            body_ += ", ";
        }
        body_ += "\"";
        body_ += key;
        body_ += "\": ";
        body_ += json;
        return *this;
    }

    std::string
    str() const
    {
        return "{" + body_ + "}";
    }

  private:
    std::string body_;
};

/** Serialize a list of JsonObject values as a JSON array. */
inline std::string
jsonArray(const std::vector<JsonObject> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) {
            out += ", ";
        }
        out += items[i].str();
    }
    out += "]";
    return out;
}

/** A {name, bytes, seconds, mb_per_s} throughput record. */
inline JsonObject
throughputRecord(std::string_view name, u64 bytes, double seconds)
{
    JsonObject o;
    o.field("name", name)
        .field("bytes", bytes)
        .field("seconds", seconds)
        .field("mb_per_s", mbPerSec(bytes, seconds));
    return o;
}

/**
 * Merge one subsection into the @p topkey object of an existing
 * BENCH_wallclock.json (created by bench_wallclock): after the call,
 * root[topkey][subkey] == parse(section_json), every other member
 * untouched. Lets bench_cache_hit, bench_fig12_concurrent, and
 * bench_service_fairness each own their slice of the result file
 * without clobbering the others. Errors are soft (warn + no write) so
 * a missing or hand-edited result file never fails a bench run.
 */
inline void
patchSection(const std::string &path, const std::string &topkey,
             const std::string &subkey, const std::string &section_json)
{
    Result<stats::JsonValue> section = stats::parseJson(section_json);
    if (!section.isOk()) {
        warn(topkey, " section for ", path,
             " is not valid JSON: ", section.status().toString());
        return;
    }
    stats::JsonValue::Object root;
    {
        std::ifstream in(path);
        if (in) {
            std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
            Result<stats::JsonValue> doc = stats::parseJson(text);
            if (doc.isOk() && doc->isObject()) {
                root = doc->asObject();
            } else {
                warn(path, " is not a JSON object; starting fresh");
            }
        }
    }
    stats::JsonValue::Object top;
    auto it = root.find(topkey);
    if (it != root.end() && it->second.isObject()) {
        top = it->second.asObject();
    }
    top[subkey] = section.take();
    root[topkey] = stats::JsonValue::object(std::move(top));

    std::ofstream out(path);
    if (!out) {
        warn("could not write ", path);
        return;
    }
    out << stats::dumpJson(stats::JsonValue::object(std::move(root)))
        << "\n";
    std::printf("  data: %s (%s.%s)\n", path.c_str(), topkey.c_str(),
                subkey.c_str());
}

/**
 * Opt-in observability for any bench binary: set SEVF_TRACE_OUT and/or
 * SEVF_METRICS_OUT in the environment and the run records spans/metrics
 * and writes the export(s) when main() returns. With neither variable
 * set this is inert — obs stays disabled and the bench numbers are the
 * same as without the hook (the <2% disabled-cost contract in
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
