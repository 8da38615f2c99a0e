/**
 * @file
 * Observability layer: registry units, histogram bucket edges, span
 * nesting (including across parallelFor workers), Chrome-trace JSON
 * well-formedness (parsed with the repo's own base/json parser), the
 * exporters, and a full five-strategy launch whose span tree must match
 * the phase order the launch itself reports.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/json.h"
#include "base/parallel.h"
#include "core/launch.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "workload/synthetic.h"

namespace sevf::obs {
namespace {

/** Fresh log + zeroed metric values for every test. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        TraceLog::instance().clear();
        Registry::instance().reset();
    }

    void
    TearDown() override
    {
        setMetricsEnabled(false);
        setTracingEnabled(false);
        TraceLog::instance().clear();
        Registry::instance().reset();
    }
};

TEST_F(ObsTest, CounterCountsOnlyWhenEnabled)
{
    Counter &c = Registry::instance().counter("test_counter_total", "t");
    c.add(5); // disabled: dropped
    EXPECT_EQ(c.value(), 0u);
    {
        ScopedEnable on(true, false);
        c.add(5);
        c.add();
    }
    EXPECT_EQ(c.value(), 6u);
    c.add(100); // disabled again
    EXPECT_EQ(c.value(), 6u);
}

TEST_F(ObsTest, RegistryReturnsSameObjectForSameIdentity)
{
    Counter &a = Registry::instance().counter("test_identity_total", "t",
                                              {{"k", "v"}});
    Counter &b = Registry::instance().counter("test_identity_total", "t",
                                              {{"k", "v"}});
    Counter &other = Registry::instance().counter("test_identity_total", "t",
                                                  {{"k", "w"}});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &other);
}

TEST_F(ObsTest, GaugeSetAddSetMax)
{
    ScopedEnable on(true, false);
    Gauge &g = Registry::instance().gauge("test_gauge", "t");
    g.set(10);
    EXPECT_EQ(g.value(), 10);
    g.add(-3);
    EXPECT_EQ(g.value(), 7);
    g.setMax(5); // below: no change
    EXPECT_EQ(g.value(), 7);
    g.setMax(20);
    EXPECT_EQ(g.value(), 20);
}

TEST_F(ObsTest, HistogramBucketEdgesAreInclusiveUpperBounds)
{
    ScopedEnable on(true, false);
    Histogram &h =
        Registry::instance().histogram("test_hist", "t", {10, 100});
    h.observe(0);   // bucket 0
    h.observe(10);  // bucket 0: bounds are inclusive
    h.observe(11);  // bucket 1
    h.observe(100); // bucket 1
    h.observe(101); // +Inf bucket
    HistogramSnapshot snap = h.snapshot();
    ASSERT_EQ(snap.counts.size(), 3u);
    EXPECT_EQ(snap.counts[0], 2u);
    EXPECT_EQ(snap.counts[1], 2u);
    EXPECT_EQ(snap.counts[2], 1u);
    EXPECT_EQ(snap.count, 5u);
    EXPECT_EQ(snap.sum, 0u + 10 + 11 + 100 + 101);
}

TEST_F(ObsTest, CounterIsExactUnderConcurrentWriters)
{
    ScopedEnable on(true, false);
    Counter &c = Registry::instance().counter("test_concurrent_total", "t");
    base::ThreadPool pool(4);
    pool.parallelFor(0, 10000, 7, [&](u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i) {
            c.add();
        }
    });
    EXPECT_EQ(c.value(), 10000u);
}

TEST_F(ObsTest, SpanRecordsNothingWhenDisabled)
{
    {
        SEVF_SPAN("disabled.span", "bytes", u64{42});
    }
    EXPECT_EQ(TraceLog::instance().size(), 0u);
    EXPECT_EQ(currentSpanId(), 0u);
}

TEST_F(ObsTest, SpansNestWithinOneThread)
{
    ScopedEnable on(true, true);
    {
        Span outer("outer");
        u64 outer_id = currentSpanId();
        ASSERT_NE(outer_id, 0u);
        {
            Span inner("inner");
            EXPECT_NE(currentSpanId(), outer_id);
        }
        EXPECT_EQ(currentSpanId(), outer_id);
    }
    EXPECT_EQ(currentSpanId(), 0u);

    std::vector<TraceEvent> events = TraceLog::instance().snapshot();
    ASSERT_EQ(events.size(), 2u); // inner closes first
    EXPECT_EQ(events[0].name, "inner");
    EXPECT_EQ(events[1].name, "outer");
    EXPECT_EQ(events[0].parent, events[1].id);
    EXPECT_EQ(events[1].parent, 0u);
    EXPECT_LE(events[1].start_ns, events[0].start_ns);
}

TEST_F(ObsTest, SpansNestAcrossParallelForWorkers)
{
    ScopedEnable on(true, true);
    u64 outer_id = 0;
    {
        Span outer("outer");
        outer_id = currentSpanId();
        base::ThreadPool pool(4);
        pool.parallelFor(0, 16, 1, [&](u64 lo, u64 hi) {
            (void)hi;
            Span worker("worker.chunk", "index", lo);
        });
    }
    std::vector<TraceEvent> events = TraceLog::instance().snapshot();
    std::size_t workers = 0;
    for (const TraceEvent &e : events) {
        if (e.name == "worker.chunk") {
            ++workers;
            // Even on a pool thread the chunk span hangs off the span
            // that issued the parallelFor (WorkerContextHooks).
            EXPECT_EQ(e.parent, outer_id);
        }
    }
    EXPECT_EQ(workers, 16u);
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormedJson)
{
    ScopedEnable on(true, true);
    {
        Span span("export.span", "bytes", u64{128});
    }
    u64 launch = newLaunchId();
    simStep(launch, kSimCpuTrack, "test-phase", "step-a", 0, 1000);
    simStep(launch, kSimPspTrack, "test-phase", "step-b", 1000, 500);
    // Nanosecond digits on a large timestamp must survive the export.
    simStep(launch, kSimCpuTrack, "late-phase", "step-late", 12345678901,
            1001);
    simCounter(launch, "test_counter", 0, 3);

    Result<base::JsonValue> doc = base::parseJson(exportChromeTrace());
    ASSERT_TRUE(doc.isOk()) << doc.status().toString();
    const base::JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool saw_wall = false;
    bool saw_step = false;
    bool saw_counter = false;
    bool saw_phase_envelope = false;
    bool saw_late_step = false;
    for (const base::JsonValue &e : events->asArray()) {
        ASSERT_TRUE(e.isObject());
        const std::string &ph = e.stringAt("ph");
        if (ph == "M") {
            continue;
        }
        EXPECT_NE(e.find("pid"), nullptr);
        EXPECT_NE(e.find("ts"), nullptr);
        const base::JsonValue *cat = e.find("cat");
        if (ph == "C") {
            saw_counter = e.stringAt("name") == "test_counter";
            continue;
        }
        ASSERT_EQ(ph, "X");
        ASSERT_NE(cat, nullptr);
        if (cat->asString() == "wall" &&
            e.stringAt("name") == "export.span") {
            saw_wall = true;
            // Span args survive into the export alongside the ids.
            const base::JsonValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->stringAt("bytes"), "128");
            EXPECT_NE(args->find("span_id"), nullptr);
            EXPECT_NE(args->find("parent_id"), nullptr);
        }
        if (cat->asString() == "sim.step") {
            saw_step = true;
        }
        if (cat->asString() == "sim.step" &&
            e.stringAt("name") == "step-late") {
            saw_late_step = true;
            EXPECT_EQ(e.numberAt("ts"), 12345678.901);
            EXPECT_EQ(e.numberAt("dur"), 1.001);
        }
        if (cat->asString() == "sim.phase" &&
            e.stringAt("name") == "test-phase") {
            saw_phase_envelope = true;
            // Envelope of both steps: [0, 1.5us) -> 1.5us duration.
            EXPECT_DOUBLE_EQ(e.numberAt("dur"), 1.5);
        }
    }
    EXPECT_TRUE(saw_wall);
    EXPECT_TRUE(saw_step);
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_phase_envelope);
    EXPECT_TRUE(saw_late_step);
}

TEST_F(ObsTest, PrometheusExportDeclaresEveryFamilyOnce)
{
    ScopedEnable on(true, false);
    Registry::instance().counter("test_prom_total", "a counter", {{"k", "a"}})
        .add(2);
    Registry::instance().counter("test_prom_total", "a counter", {{"k", "b"}})
        .add(3);
    Registry::instance().histogram("test_prom_hist", "a histogram", {10, 100})
        .observe(7);
    std::string text = exportPrometheus();

    // One TYPE line per family even with several label sets.
    std::size_t first = text.find("# TYPE test_prom_total counter");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find("# TYPE test_prom_total counter", first + 1),
              std::string::npos);
    EXPECT_NE(text.find("test_prom_total{k=\"a\"} 2"), std::string::npos);
    EXPECT_NE(text.find("test_prom_total{k=\"b\"} 3"), std::string::npos);
    // Histogram renders cumulative buckets plus +Inf/sum/count.
    EXPECT_NE(text.find("test_prom_hist_bucket{le=\"10\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("test_prom_hist_sum 7"), std::string::npos);
    EXPECT_NE(text.find("test_prom_hist_count 1"), std::string::npos);
}

TEST_F(ObsTest, MetricsJsonExportParses)
{
    ScopedEnable on(true, false);
    Registry::instance().counter("test_json_total", "t").add(9);
    Result<base::JsonValue> doc = base::parseJson(exportMetricsJson());
    ASSERT_TRUE(doc.isOk()) << doc.status().toString();
    const base::JsonValue *metrics = doc->find("metrics");
    ASSERT_NE(metrics, nullptr);
    bool found = false;
    for (const base::JsonValue &m : metrics->asArray()) {
        if (m.stringAt("name") == "test_json_total") {
            found = true;
            EXPECT_EQ(m.stringAt("kind"), "counter");
            EXPECT_DOUBLE_EQ(m.numberAt("value"), 9.0);
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(ObsTest, MetricsJsonExportEscapesControlCharacters)
{
    // Label values can come from trace files (tenant ids). RFC 8259
    // forbids raw control characters in strings, and base::parseJson
    // rejects them, so the export must parse; the text checks pin the
    // escaped form.
    ScopedEnable on(true, false);
    Registry::instance()
        .counter("test_json_escape_total", "t", {{"tenant", "a\tb\x01" "c"}})
        .add();
    std::string json = exportMetricsJson();
    Result<base::JsonValue> doc = base::parseJson(json);
    ASSERT_TRUE(doc.isOk()) << doc.status().toString();
    EXPECT_NE(json.find("\"a\\tb\\u0001c\""), std::string::npos) << json;
    EXPECT_EQ(json.find('\t'), std::string::npos);
    EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST_F(ObsTest, KernelTimerAccumulatesBytes)
{
    ScopedEnable on(true, false);
    KernelMetrics &km = kernelMetrics("obs_test_kernel");
    {
        KernelTimer timer(km, 4096);
    }
    EXPECT_EQ(km.bytes_total.value(), 4096u);
    // Wall time is nonzero but unpredictable; just require it moved.
    EXPECT_GT(km.wall_ns_total.value(), 0u);
}

/**
 * First-appearance phase order of the recorded sim steps — the same
 * convention BootTrace::phases() uses (launches revisit phases, e.g.
 * vmm work between pre-encryption batches, so consecutive-dedup would
 * not match).
 */
std::vector<std::string>
recordedPhaseOrder(const std::vector<TraceEvent> &events)
{
    std::vector<std::string> order;
    std::set<std::string> seen;
    for (const TraceEvent &e : events) {
        if (e.kind != TraceEventKind::kSimStep) {
            continue;
        }
        for (const auto &[k, v] : e.args) {
            if (k == "phase" && seen.insert(v).second) {
                order.push_back(v);
            }
        }
    }
    return order;
}

TEST_F(ObsTest, EveryStrategyProducesAFaithfulSpanTree)
{
    const core::StrategyKind kinds[] = {
        core::StrategyKind::kStockFirecracker,
        core::StrategyKind::kQemuOvmfSev,
        core::StrategyKind::kSevDirectBoot,
        core::StrategyKind::kSeveriFastBz,
        core::StrategyKind::kSeveriFastVmlinux,
    };
    for (core::StrategyKind kind : kinds) {
        SCOPED_TRACE(core::strategyName(kind));
        TraceLog::instance().clear();
        ScopedEnable on(true, true);

        core::Platform platform(sim::CostParams::deterministic());
        core::LaunchRequest request;
        request.scale = 1.0 / 32.0;
        Result<core::LaunchResult> result =
            core::makeStrategy(kind)->launch(platform, request);
        ASSERT_TRUE(result.isOk()) << result.status().toString();

        std::vector<TraceEvent> events = TraceLog::instance().snapshot();

        // The wall-span tree has exactly one root: the "launch" span
        // every BootStrategy::launch opens.
        std::set<u64> ids;
        std::size_t roots = 0;
        u64 launch_id = 0;
        for (const TraceEvent &e : events) {
            if (e.kind == TraceEventKind::kWallSpan) {
                ids.insert(e.id);
                if (e.parent == 0) {
                    EXPECT_EQ(e.name, "launch");
                    ++roots;
                    launch_id = e.id;
                }
            }
        }
        EXPECT_EQ(roots, 1u);
        for (const TraceEvent &e : events) {
            if (e.kind == TraceEventKind::kWallSpan && e.parent != 0) {
                EXPECT_TRUE(ids.contains(e.parent))
                    << e.name << " has a dangling parent";
            }
        }

        // The two in-guest stages are wall spans named after their sim
        // phases, directly under the launch root.
        if (kind == core::StrategyKind::kSeveriFastBz) {
            std::set<std::string> children;
            for (const TraceEvent &e : events) {
                if (e.kind == TraceEventKind::kWallSpan &&
                    e.parent == launch_id) {
                    children.insert(e.name);
                }
            }
            EXPECT_TRUE(children.contains(sim::phase::kBootVerification));
            EXPECT_TRUE(children.contains(sim::phase::kBootstrapLoader));
        }

        // Sim steps replay the launch's phase order exactly, and cover
        // >= 95% of the simulated duration (here: 100% - every charged
        // step is recorded).
        EXPECT_EQ(recordedPhaseOrder(events), result->trace.phases());
        u64 covered = 0;
        u64 end = 0;
        for (const TraceEvent &e : events) {
            if (e.kind == TraceEventKind::kSimStep) {
                covered += e.dur_ns;
                end = std::max(end, e.start_ns + e.dur_ns);
            }
        }
        ASSERT_GT(end, 0u);
        EXPECT_EQ(end, static_cast<u64>(result->trace.total().ns()));
        EXPECT_GE(static_cast<double>(covered), 0.95 * end);
    }
}

TEST_F(ObsTest, LaunchIsMetricFreeWhenDisabled)
{
    core::Platform platform(sim::CostParams::deterministic());
    core::LaunchRequest request;
    request.scale = 1.0 / 32.0;
    Result<core::LaunchResult> result =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz)
            ->launch(platform, request);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(TraceLog::instance().size(), 0u);
    for (const MetricSnapshot &m : Registry::instance().snapshot()) {
        if (m.kind == MetricKind::kCounter) {
            EXPECT_EQ(m.counter_value, 0u) << m.name;
        }
    }
}

} // namespace
} // namespace sevf::obs
