/**
 * @file
 * Span-based tracing across both of the repo's clocks.
 *
 * Two time domains coexist here and the trace must carry both without
 * conflating them:
 *
 *  - *Wall clock*: real host nanoseconds (steady_clock, the same source
 *    as bench/common.h's wallClock()). RAII `Span` objects — normally
 *    created via `SEVF_SPAN("name")` — time real work such as an
 *    XexCipher::encrypt call. Spans nest per thread through a
 *    thread-local parent pointer, and the parent link survives hops
 *    into `base::parallelFor` workers: obs installs
 *    base::WorkerContextHooks so a worker chunk executes with the
 *    caller's open span as its parent.
 *  - *Simulated clock*: virtual nanoseconds from sim/time.h. The core
 *    TraceBuilder reports every `sim::Step` it charges (simStep), and
 *    the DES replay engine reports PSP queue depth over virtual time
 *    (simCounter). Each launch gets a fresh id from newLaunchId() so
 *    concurrent launches land on separate tracks.
 *
 * Everything funnels into one process-wide TraceLog; the Chrome
 * trace-event exporter (exportChromeTrace) emits wall events under
 * pid 1 and each simulated launch under its own pid, which is how the
 * two domains stay separate in Perfetto's UI. Like the metrics
 * registry, recording is gated on one relaxed atomic flag and costs a
 * single branch when tracing is off.
 */
#ifndef SEVF_OBS_SPAN_H_
#define SEVF_OBS_SPAN_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/types.h"
#include "obs/metrics.h"

namespace sevf::obs {

/** Master switch for trace recording (default off). */
bool tracingEnabled();
void setTracingEnabled(bool on);

/** Enable/disable metrics + tracing together for a scope (tests, CLI). */
class ScopedEnable
{
  public:
    ScopedEnable(bool metrics, bool tracing)
        : metrics_before_(metricsEnabled()), tracing_before_(tracingEnabled())
    {
        setMetricsEnabled(metrics);
        setTracingEnabled(tracing);
    }

    ~ScopedEnable()
    {
        setMetricsEnabled(metrics_before_);
        setTracingEnabled(tracing_before_);
    }

    ScopedEnable(const ScopedEnable &) = delete;
    ScopedEnable &operator=(const ScopedEnable &) = delete;

  private:
    bool metrics_before_;
    bool tracing_before_;
};

enum class TraceEventKind : u8 {
    kWallSpan,   ///< real-time RAII span (pid 1)
    kSimStep,    ///< one sim::Step charged by a TraceBuilder
    kSimCounter, ///< sim-time counter sample (PSP queue depth)
};

/** One recorded event; exporters and tests read these via snapshot(). */
struct TraceEvent {
    TraceEventKind kind = TraceEventKind::kWallSpan;
    std::string name;
    /** Export category: "wall", "sim.step", "counter". */
    std::string category;
    u64 id = 0;     ///< span id (wall spans only)
    u64 parent = 0; ///< enclosing span id, 0 = root
    u64 start_ns = 0;
    u64 dur_ns = 0;
    /** Wall spans: recording thread's shard slot. Sim: track (see kSim*Track). */
    u64 track = 0;
    u64 launch = 0; ///< sim launch id, 0 for wall events
    i64 value = 0;  ///< counter sample value
    /** Extra key/value payload exported into the event's args. */
    std::vector<std::pair<std::string, std::string>> args;
};

/** Sim track ids (Chrome tid within a launch's pid). */
inline constexpr u64 kSimPhaseTrack = 0;
inline constexpr u64 kSimCpuTrack = 1;
inline constexpr u64 kSimPspTrack = 2;
inline constexpr u64 kSimNetTrack = 3;

/**
 * The process-wide event sink. Bounded: past kMaxEvents the log drops
 * events and counts them in sevf_trace_events_dropped_total.
 */
class TraceLog
{
  public:
    static TraceLog &instance();

    static constexpr std::size_t kMaxEvents = 1u << 20;

    void record(TraceEvent event);
    std::vector<TraceEvent> snapshot() const;
    std::size_t size() const;
    void clear();

  private:
    TraceLog() = default;
    struct Impl;
    Impl &impl() const;
};

/** Fresh id for one simulated launch (its own pid in the export). */
u64 newLaunchId();

/**
 * Record one charged sim::Step. @p track is one of kSimCpuTrack /
 * kSimPspTrack / kSimNetTrack; @p start_ns is the virtual time at which
 * the step began. No-op while tracing is disabled.
 */
void simStep(u64 launch, u64 track, std::string_view phase,
             std::string_view label, u64 start_ns, u64 dur_ns);

/** Record a sim-time counter sample (Chrome "C" event). No-op when off. */
void simCounter(u64 launch, const char *name, u64 t_ns, i64 value);

/** The wall span id currently open on this thread (0 = none). */
u64 currentSpanId();

/**
 * RAII wall-clock span. Prefer the SEVF_SPAN macro. When tracing is
 * disabled at construction the object is inert (one branch each way).
 */
class Span
{
  public:
    explicit Span(const char *name);
    /**
     * Span with one extra exported arg whose value is a *static* string
     * (the pointer is held until scope exit, not copied).
     */
    Span(const char *name, const char *arg_key, const char *arg_value);
    /**
     * Span with one numeric arg, e.g. ("bytes", n). The number is only
     * rendered to a string when tracing is enabled, so disabled-mode
     * cost stays one branch — pass raw integers, never std::to_string.
     */
    Span(const char *name, const char *arg_key, u64 arg_value);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void open();

    const char *name_;
    u64 id_ = 0; ///< 0 = tracing was off at construction
    u64 parent_ = 0;
    u64 start_ns_ = 0;
    const char *arg_key_ = nullptr;
    const char *arg_cstr_ = nullptr;
    std::string arg_str_;
};

// Two-level expansion so __LINE__ pastes into a unique identifier.
#define SEVF_OBS_CONCAT2(a, b) a##b
#define SEVF_OBS_CONCAT(a, b) SEVF_OBS_CONCAT2(a, b)

/**
 * Open a wall-clock span for the rest of the enclosing scope:
 *   SEVF_SPAN("xex.encrypt");
 *   SEVF_SPAN("xex.encrypt", "bytes", n);   // n: integral, rendered lazily
 */
#define SEVF_SPAN(...)                                                       \
    ::sevf::obs::Span SEVF_OBS_CONCAT(sevf_obs_span_, __LINE__)(__VA_ARGS__)

/**
 * Render the log as Chrome trace-event JSON (Perfetto / about://tracing
 * loadable). Wall spans land under pid 1 with one tid per recording
 * thread; each simulated launch is its own pid with phase/cpu/psp/net
 * tids, per-phase summary spans synthesized on the phase track, and
 * counter samples as "C" events. Timestamps are microseconds; wall
 * timestamps are rebased to the earliest wall event.
 */
std::string exportChromeTrace();

} // namespace sevf::obs

#endif // SEVF_OBS_SPAN_H_
