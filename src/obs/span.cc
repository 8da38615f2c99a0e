#include "obs/span.h"

#include <algorithm>
#include <map>

#include "base/json.h"
#include "base/mutex.h"
#include "base/parallel.h"

namespace sevf::obs {
namespace {

std::atomic<bool> g_tracing_enabled{false};
std::atomic<u64> g_next_span_id{1};
std::atomic<u64> g_next_launch_id{1};

/** The wall span currently open on this thread (parent for new spans). */
thread_local u64 tl_current_span = 0;

Counter &
droppedCounter()
{
    static Counter &c = Registry::instance().counter(
        "sevf_trace_events_dropped_total",
        "Trace events discarded because the log hit its size cap");
    return c;
}

// ---- parallelFor context propagation -------------------------------------
//
// Installed once, process-wide, by the registrar below: parallelFor
// captures the submitting thread's open span and every chunk-claiming
// session runs with it as the ambient parent, so spans opened inside
// worker chunks nest under the span that issued the parallelFor.

u64
hookCapture()
{
    return tl_current_span;
}

u64
hookEnter(u64 token)
{
    u64 saved = tl_current_span;
    tl_current_span = token;
    return saved;
}

void
hookExit(u64 saved)
{
    tl_current_span = saved;
}

struct HookRegistrar {
    HookRegistrar()
    {
        base::WorkerContextHooks hooks;
        hooks.capture = &hookCapture;
        hooks.enter = &hookEnter;
        hooks.exit = &hookExit;
        base::setWorkerContextHooks(hooks);
    }
};

// Lives in this translation unit so linking any span user installs the
// hooks before main().
const HookRegistrar g_hook_registrar;

} // namespace

bool
tracingEnabled()
{
    return g_tracing_enabled.load(std::memory_order_relaxed);
}

void
setTracingEnabled(bool on)
{
    g_tracing_enabled.store(on, std::memory_order_relaxed);
}

// ---- TraceLog ------------------------------------------------------------

struct TraceLog::Impl {
    mutable base::Mutex mu;
    std::vector<TraceEvent> events SEVF_GUARDED_BY(mu);
};

TraceLog &
TraceLog::instance()
{
    static TraceLog log;
    return log;
}

TraceLog::Impl &
TraceLog::impl() const
{
    static Impl impl;
    return impl;
}

void
TraceLog::record(TraceEvent event)
{
    Impl &i = impl();
    base::MutexLock lock(i.mu);
    if (i.events.size() >= kMaxEvents) {
        droppedCounter().add();
        return;
    }
    i.events.push_back(std::move(event));
}

std::vector<TraceEvent>
TraceLog::snapshot() const
{
    Impl &i = impl();
    base::MutexLock lock(i.mu);
    return i.events;
}

std::size_t
TraceLog::size() const
{
    Impl &i = impl();
    base::MutexLock lock(i.mu);
    return i.events.size();
}

void
TraceLog::clear()
{
    Impl &i = impl();
    base::MutexLock lock(i.mu);
    i.events.clear();
}

// ---- sim-side recording --------------------------------------------------

u64
newLaunchId()
{
    return g_next_launch_id.fetch_add(1, std::memory_order_relaxed);
}

void
simStep(u64 launch, u64 track, std::string_view phase, std::string_view label,
        u64 start_ns, u64 dur_ns)
{
    if (!tracingEnabled()) {
        return;
    }
    TraceEvent e;
    e.kind = TraceEventKind::kSimStep;
    e.name = std::string(label);
    e.category = "sim.step";
    e.start_ns = start_ns;
    e.dur_ns = dur_ns;
    e.track = track;
    e.launch = launch;
    e.args.emplace_back("phase", std::string(phase));
    TraceLog::instance().record(std::move(e));
}

void
simCounter(u64 launch, const char *name, u64 t_ns, i64 value)
{
    if (!tracingEnabled()) {
        return;
    }
    TraceEvent e;
    e.kind = TraceEventKind::kSimCounter;
    e.name = name;
    e.category = "counter";
    e.start_ns = t_ns;
    e.launch = launch;
    e.value = value;
    TraceLog::instance().record(std::move(e));
}

// ---- wall spans ----------------------------------------------------------

u64
currentSpanId()
{
    return tl_current_span;
}

Span::Span(const char *name) : name_(name)
{
    open();
}

Span::Span(const char *name, const char *arg_key, const char *arg_value)
    : name_(name), arg_key_(arg_key), arg_cstr_(arg_value)
{
    open();
}

Span::Span(const char *name, const char *arg_key, u64 arg_value)
    : name_(name), arg_key_(arg_key)
{
    open();
    if (id_ != 0) {
        arg_str_ = std::to_string(arg_value);
    }
}

void
Span::open()
{
    if (!tracingEnabled()) {
        return;
    }
    id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = tl_current_span;
    tl_current_span = id_;
    start_ns_ = wallNowNs();
}

Span::~Span()
{
    if (id_ == 0) {
        return;
    }
    tl_current_span = parent_;
    TraceEvent e;
    e.kind = TraceEventKind::kWallSpan;
    e.name = name_;
    e.category = "wall";
    e.id = id_;
    e.parent = parent_;
    e.start_ns = start_ns_;
    e.dur_ns = wallNowNs() - start_ns_;
    e.track = threadShardSlot();
    if (arg_key_ != nullptr) {
        e.args.emplace_back(arg_key_, arg_cstr_ != nullptr
                                          ? std::string(arg_cstr_)
                                          : std::move(arg_str_));
    }
    TraceLog::instance().record(std::move(e));
}

// ---- Chrome trace export -------------------------------------------------

namespace {

/** Microseconds with sub-µs precision (Chrome "ts"/"dur"). */
double
micros(u64 ns)
{
    return static_cast<double>(ns) / 1000.0;
}

void
writeMetadata(base::JsonWriter &w, const char *what, u64 pid, u64 tid,
              std::string_view name)
{
    w.beginObject();
    w.key("ph").value("M").key("name").value(what);
    w.key("pid").value(pid).key("tid").value(tid);
    w.key("args").beginObject().key("name").value(name).endObject();
    w.endObject();
}

/** Open a complete ("X") event; the caller writes "args" and closes it. */
void
beginComplete(base::JsonWriter &w, u64 pid, u64 tid, std::string_view name,
              std::string_view category, u64 start_ns, u64 dur_ns)
{
    w.beginObject();
    w.key("ph").value("X").key("pid").value(pid).key("tid").value(tid);
    w.key("name").value(name).key("cat").value(category);
    w.key("ts").value(micros(start_ns)).key("dur").value(micros(dur_ns));
}

/** Sim launches get their own Chrome pid so tracks stay separate. */
u64
launchPid(u64 launch)
{
    return 1000 + launch;
}

const char *
simTrackName(u64 track)
{
    switch (track) {
    case kSimPhaseTrack:
        return "phases";
    case kSimCpuTrack:
        return "cpu";
    case kSimPspTrack:
        return "psp";
    case kSimNetTrack:
        return "net";
    default:
        return "sim";
    }
}

} // namespace

std::string
exportChromeTrace()
{
    std::vector<TraceEvent> events = TraceLog::instance().snapshot();

    // Wall timestamps are absolute steady_clock readings; rebase to the
    // earliest wall event so the trace starts near t=0.
    u64 wall_base = 0;
    bool have_wall = false;
    for (const TraceEvent &e : events) {
        if (e.kind == TraceEventKind::kWallSpan &&
            (!have_wall || e.start_ns < wall_base)) {
            wall_base = e.start_ns;
            have_wall = true;
        }
    }

    // Synthesize one summary span per (launch, phase): the envelope of
    // every step charged to that phase, on the launch's "phases" track.
    struct PhaseEnvelope {
        u64 start = 0;
        u64 end = 0;
        bool init = false;
    };
    std::map<std::pair<u64, std::string>, PhaseEnvelope> phases;
    std::map<u64, bool> launches; // launch ids seen, for process metadata
    std::map<std::pair<u64, u64>, bool> sim_tracks;
    std::map<u64, bool> wall_tracks;
    for (const TraceEvent &e : events) {
        if (e.kind == TraceEventKind::kWallSpan) {
            wall_tracks[e.track] = true;
            continue;
        }
        launches[e.launch] = true;
        if (e.kind != TraceEventKind::kSimStep) {
            continue;
        }
        sim_tracks[{e.launch, e.track}] = true;
        std::string phase;
        for (const auto &[k, v] : e.args) {
            if (k == "phase") {
                phase = v;
            }
        }
        PhaseEnvelope &env = phases[{e.launch, phase}];
        if (!env.init) {
            env = {e.start_ns, e.start_ns + e.dur_ns, true};
        } else {
            env.start = std::min(env.start, e.start_ns);
            env.end = std::max(env.end, e.start_ns + e.dur_ns);
        }
    }

    base::JsonWriter w;
    w.beginObject().key("traceEvents").beginArray();

    // Process / thread naming metadata.
    if (have_wall) {
        writeMetadata(w, "process_name", 1, 0, "wall clock");
        for (const auto &[track, unused] : wall_tracks) {
            (void)unused;
            writeMetadata(w, "thread_name", 1, track,
                          "thread-" + std::to_string(track));
        }
    }
    for (const auto &[launch, unused] : launches) {
        (void)unused;
        writeMetadata(w, "process_name", launchPid(launch), 0,
                      "sim launch " + std::to_string(launch));
        writeMetadata(w, "thread_name", launchPid(launch), kSimPhaseTrack,
                      simTrackName(kSimPhaseTrack));
    }
    for (const auto &[key, unused] : sim_tracks) {
        (void)unused;
        writeMetadata(w, "thread_name", launchPid(key.first), key.second,
                      simTrackName(key.second));
    }

    // Synthesized per-phase envelope spans.
    for (const auto &[key, env] : phases) {
        beginComplete(w, launchPid(key.first), kSimPhaseTrack, key.second,
                      "sim.phase", env.start, env.end - env.start);
        w.key("args").beginObject().endObject().endObject();
    }

    // The recorded events themselves.
    for (const TraceEvent &e : events) {
        if (e.kind == TraceEventKind::kSimCounter) {
            w.beginObject();
            w.key("ph").value("C").key("pid").value(launchPid(e.launch));
            w.key("tid").value(u64{0}).key("name").value(e.name);
            w.key("cat").value(e.category).key("ts").value(micros(e.start_ns));
            w.key("args").beginObject().key("value").value(e.value);
            w.endObject().endObject();
            continue;
        }
        bool wall = e.kind == TraceEventKind::kWallSpan;
        beginComplete(w, wall ? 1 : launchPid(e.launch), e.track, e.name,
                      e.category, wall ? e.start_ns - wall_base : e.start_ns,
                      e.dur_ns);
        w.key("args").beginObject();
        for (const auto &[k, v] : e.args) {
            w.key(k).value(v);
        }
        if (wall) {
            w.key("span_id").value(std::to_string(e.id));
            w.key("parent_id").value(std::to_string(e.parent));
        }
        w.endObject().endObject();
    }

    w.endArray().key("displayTimeUnit").value("ms").endObject();
    return w.take() + "\n";
}

} // namespace sevf::obs
