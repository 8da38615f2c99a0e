#include "obs/span.h"

#include <algorithm>
#include <cstdio>
#include <map>

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

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

namespace {

void
appendString(std::string &out, std::string_view s)
{
    out += '"';
    appendJsonEscaped(out, s);
    out += '"';
}

/** Microsecond timestamp with sub-µs precision (Chrome "ts"/"dur"). */
void
appendMicros(std::string &out, u64 ns)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
    out += buf;
}

void
appendArgs(std::string &out,
           const std::vector<std::pair<std::string, std::string>> &args)
{
    out += "{";
    bool first = true;
    for (const auto &[k, v] : args) {
        if (!first) {
            out += ", ";
        }
        first = false;
        appendString(out, k);
        out += ": ";
        appendString(out, v);
    }
    out += "}";
}

void
appendMetadata(std::string &out, const char *what, u64 pid, u64 tid,
               std::string_view name, bool &first)
{
    if (!first) {
        out += ",\n";
    }
    first = false;
    out += R"(  {"ph": "M", "name": ")";
    out += what;
    out += R"(", "pid": )";
    out += std::to_string(pid);
    out += ", \"tid\": ";
    out += std::to_string(tid);
    out += R"(, "args": {"name": )";
    appendString(out, name);
    out += "}}";
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

    std::string out = "{\"traceEvents\": [\n";
    bool first = true;

    // Process / thread naming metadata.
    if (have_wall) {
        appendMetadata(out, "process_name", 1, 0, "wall clock", first);
        for (const auto &[track, unused] : wall_tracks) {
            (void)unused;
            appendMetadata(out, "thread_name", 1, track,
                           "thread-" + std::to_string(track), first);
        }
    }
    for (const auto &[launch, unused] : launches) {
        (void)unused;
        appendMetadata(out, "process_name", launchPid(launch), 0,
                       "sim launch " + std::to_string(launch), first);
        appendMetadata(out, "thread_name", launchPid(launch), kSimPhaseTrack,
                       simTrackName(kSimPhaseTrack), first);
    }
    for (const auto &[key, unused] : sim_tracks) {
        (void)unused;
        appendMetadata(out, "thread_name", launchPid(key.first), key.second,
                       simTrackName(key.second), first);
    }

    // Synthesized per-phase envelope spans.
    for (const auto &[key, env] : phases) {
        if (!first) {
            out += ",\n";
        }
        first = false;
        out += R"(  {"ph": "X", "pid": )";
        out += std::to_string(launchPid(key.first));
        out += ", \"tid\": ";
        out += std::to_string(kSimPhaseTrack);
        out += ", \"name\": ";
        appendString(out, key.second);
        out += R"(, "cat": "sim.phase", "ts": )";
        appendMicros(out, env.start);
        out += ", \"dur\": ";
        appendMicros(out, env.end - env.start);
        out += ", \"args\": {}}";
    }

    // The recorded events themselves.
    for (const TraceEvent &e : events) {
        if (!first) {
            out += ",\n";
        }
        first = false;
        switch (e.kind) {
        case TraceEventKind::kWallSpan: {
            out += R"(  {"ph": "X", "pid": 1, "tid": )";
            out += std::to_string(e.track);
            out += ", \"name\": ";
            appendString(out, e.name);
            out += R"(, "cat": "wall", "ts": )";
            appendMicros(out, e.start_ns - wall_base);
            out += ", \"dur\": ";
            appendMicros(out, e.dur_ns);
            out += ", \"args\": ";
            std::vector<std::pair<std::string, std::string>> args = e.args;
            args.emplace_back("span_id", std::to_string(e.id));
            args.emplace_back("parent_id", std::to_string(e.parent));
            appendArgs(out, args);
            out += "}";
            break;
        }
        case TraceEventKind::kSimStep: {
            out += R"(  {"ph": "X", "pid": )";
            out += std::to_string(launchPid(e.launch));
            out += ", \"tid\": ";
            out += std::to_string(e.track);
            out += ", \"name\": ";
            appendString(out, e.name);
            out += R"(, "cat": "sim.step", "ts": )";
            appendMicros(out, e.start_ns);
            out += ", \"dur\": ";
            appendMicros(out, e.dur_ns);
            out += ", \"args\": ";
            appendArgs(out, e.args);
            out += "}";
            break;
        }
        case TraceEventKind::kSimCounter: {
            out += R"(  {"ph": "C", "pid": )";
            out += std::to_string(launchPid(e.launch));
            out += ", \"tid\": 0, \"name\": ";
            appendString(out, e.name);
            out += R"(, "cat": "counter", "ts": )";
            appendMicros(out, e.start_ns);
            out += R"(, "args": {"value": )";
            out += std::to_string(e.value);
            out += "}}";
            break;
        }
        }
    }

    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

} // namespace sevf::obs
