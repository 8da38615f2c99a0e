#include "taint/taint.h"

#include <atomic>
#include <map>

#include "base/logging.h"
#include "base/mutex.h"

namespace sevf::taint {

namespace {

#if defined(SEVF_TAINT_DEFAULT_ENFORCE)
constexpr Mode kDefaultMode = Mode::kEnforce;
#else
constexpr Mode kDefaultMode = Mode::kRecord;
#endif

struct Segment {
    u64 end; //!< exclusive
    TaintSet labels;
};

/** Cap on stored audit entries; the counts keep running past it. */
constexpr u64 kMaxAuditEntries = 4096;

/**
 * The label map is sharded by address so hooks called from parallel
 * launch workers contend only when they touch the same 1 MiB address
 * slice. Segments never straddle a slice boundary (every operation
 * splits its range at slice boundaries first), so each byte's labels
 * live in exactly one shard and each sub-range is handled under
 * exactly one shard lock — locks are never nested.
 */
constexpr unsigned kShardShift = 20; // 1 MiB address slices
constexpr u64 kSliceSize = u64{1} << kShardShift;
constexpr unsigned kShardCount = 64;

struct Shard {
    base::Mutex mu;
    std::map<u64, Segment> segments SEVF_GUARDED_BY(mu);
};

/** Mode is read on every hook: an atomic, not a lock. */
std::atomic<Mode> g_mode{kDefaultMode};

/**
 * Audit log (violations, declassifications) behind its own mutex.
 * Lock order (tools/lock-order.txt): Shard::mu and AuditState::mu are
 * mutually exclusive — no code path holds one while acquiring the
 * other, so the hooks can never deadlock against each other.
 */
struct AuditState {
    base::Mutex mu;
    std::vector<Violation> violations SEVF_GUARDED_BY(mu);
    std::vector<Declassification> declassifications SEVF_GUARDED_BY(mu);
    u64 violation_count SEVF_GUARDED_BY(mu) = 0;
    u64 declassification_count SEVF_GUARDED_BY(mu) = 0;
};

Shard &
shardFor(u64 addr)
{
    static Shard shards[kShardCount];
    return shards[(addr >> kShardShift) % kShardCount];
}

AuditState &
audit()
{
    static AuditState s;
    return s;
}

/**
 * Invoke fn(slice_lo, slice_hi) for each maximal sub-range of
 * [lo, hi) that stays within one 1 MiB address slice.
 */
template <typename Fn>
void
forEachSlice(u64 lo, u64 hi, Fn fn)
{
    while (lo < hi) {
        u64 slice_end = std::min(hi, alignDown(lo, kSliceSize) + kSliceSize);
        fn(lo, slice_end);
        lo = slice_end;
    }
}

/**
 * Split any segment straddling @p addr so that @p addr is a segment
 * boundary. Callers hold the shard lock (checked: SEVF_REQUIRES).
 */
void
splitAt(Shard &shard, u64 addr) SEVF_REQUIRES(shard.mu)
{
    std::map<u64, Segment> &segs = shard.segments;
    auto it = segs.upper_bound(addr);
    if (it == segs.begin()) {
        return;
    }
    --it;
    if (it->first < addr && addr < it->second.end) {
        Segment tail{it->second.end, it->second.labels};
        it->second.end = addr;
        segs.emplace(addr, tail);
    }
}

} // namespace

std::string
describeLabels(TaintSet labels)
{
    static constexpr struct {
        TaintSet bit;
        const char *name;
    } kNames[] = {
        {kVek, "vek"},
        {kChipKey, "chip-key"},
        {kTransportKey, "transport-key"},
        {kLaunchSecret, "launch-secret"},
        {kGuestData, "guest-data"},
    };
    if (labels == kNone) {
        return "public";
    }
    std::string out;
    for (const auto &n : kNames) {
        if (labels & n.bit) {
            if (!out.empty()) {
                out += "|";
            }
            out += n.name;
        }
    }
    return out;
}

const char *
sinkName(Sink sink)
{
    switch (sink) {
      case Sink::kHostWrite: return "host-write";
      case Sink::kSharedPageWrite: return "shared-page-write";
      case Sink::kFwCfg: return "fw_cfg";
      case Sink::kReportField: return "report-field";
    }
    return "unknown";
}

Mode
mode()
{
    return g_mode.load(std::memory_order_acquire);
}

void
setMode(Mode m)
{
    g_mode.store(m, std::memory_order_release);
}

void
mark(const void *p, u64 len, TaintSet labels)
{
    if (len == 0 || labels == kNone || mode() == Mode::kOff) {
        return;
    }
    u64 lo = reinterpret_cast<u64>(p);
    forEachSlice(lo, lo + len, [&](u64 slice_lo, u64 slice_hi) {
        Shard &shard = shardFor(slice_lo);
        base::MutexLock lock(shard.mu);
        std::map<u64, Segment> &segs = shard.segments;
        splitAt(shard, slice_lo);
        splitAt(shard, slice_hi);
        // Join onto existing segments inside the slice, fill the gaps.
        u64 cursor = slice_lo;
        auto it = segs.lower_bound(slice_lo);
        while (it != segs.end() && it->first < slice_hi) {
            if (it->first > cursor) {
                segs.emplace(cursor, Segment{it->first, labels});
            }
            it->second.labels |= labels;
            cursor = it->second.end;
            ++it;
        }
        if (cursor < slice_hi) {
            segs.emplace(cursor, Segment{slice_hi, labels});
        }
    });
}

void
clearRange(const void *p, u64 len)
{
    if (len == 0) {
        return;
    }
    u64 lo = reinterpret_cast<u64>(p);
    forEachSlice(lo, lo + len, [&](u64 slice_lo, u64 slice_hi) {
        Shard &shard = shardFor(slice_lo);
        base::MutexLock lock(shard.mu);
        std::map<u64, Segment> &segs = shard.segments;
        splitAt(shard, slice_lo);
        splitAt(shard, slice_hi);
        auto it = segs.lower_bound(slice_lo);
        while (it != segs.end() && it->first < slice_hi) {
            it = segs.erase(it);
        }
    });
}

TaintSet
query(const void *p, u64 len)
{
    if (len == 0 || mode() == Mode::kOff) {
        return kNone;
    }
    u64 lo = reinterpret_cast<u64>(p);
    TaintSet out = kNone;
    forEachSlice(lo, lo + len, [&](u64 slice_lo, u64 slice_hi) {
        Shard &shard = shardFor(slice_lo);
        base::MutexLock lock(shard.mu);
        const std::map<u64, Segment> &segs = shard.segments;
        auto it = segs.upper_bound(slice_lo);
        if (it != segs.begin()) {
            auto prev = it;
            --prev;
            if (prev->second.end > slice_lo) {
                out |= prev->second.labels;
            }
        }
        while (it != segs.end() && it->first < slice_hi) {
            out |= it->second.labels;
            ++it;
        }
    });
    return out;
}

namespace {

void
appendDeclassification(AuditState &s, std::string_view reason, u64 bytes)
    SEVF_REQUIRES(s.mu)
{
    ++s.declassification_count;
    if (s.declassifications.size() < kMaxAuditEntries) {
        s.declassifications.push_back({std::string(reason), bytes});
    }
}

} // namespace

void
declassify(const void *p, u64 len, std::string_view reason)
{
    clearRange(p, len);
    AuditState &s = audit();
    base::MutexLock lock(s.mu);
    appendDeclassification(s, reason, len);
}

void
noteDeclassified(std::string_view reason)
{
    if (mode() == Mode::kOff) {
        return;
    }
    AuditState &s = audit();
    base::MutexLock lock(s.mu);
    appendDeclassification(s, reason, 0);
}

std::vector<Declassification>
declassifications()
{
    AuditState &s = audit();
    base::MutexLock lock(s.mu);
    return s.declassifications;
}

u64
declassificationCount()
{
    AuditState &s = audit();
    base::MutexLock lock(s.mu);
    return s.declassification_count;
}

TaintSet
guardSink(Sink sink, const void *p, u64 len, std::string_view context)
{
    if (mode() == Mode::kOff) {
        return kNone;
    }
    TaintSet labels = query(p, len);
    if (labels == kNone) {
        return kNone;
    }
    std::string message =
        std::string("taint: SECRET bytes [") + describeLabels(labels) +
        "] reached public sink '" + sinkName(sink) + "' (" +
        std::string(context) + ", " + std::to_string(len) +
        " bytes); if this flow is intentional, declassify() it at a "
        "reviewed boundary";
    AuditState &s = audit();
    {
        base::MutexLock lock(s.mu);
        ++s.violation_count;
        if (s.violations.size() < kMaxAuditEntries) {
            s.violations.push_back(
                {sink, labels, std::string(context), message});
        }
    }
    if (mode() == Mode::kEnforce) {
        panic(message);
    }
    return labels;
}

std::vector<Violation>
violations()
{
    AuditState &s = audit();
    base::MutexLock lock(s.mu);
    return s.violations;
}

u64
violationCount()
{
    AuditState &s = audit();
    base::MutexLock lock(s.mu);
    return s.violation_count;
}

void
clearViolations()
{
    AuditState &s = audit();
    base::MutexLock lock(s.mu);
    s.violations.clear();
    s.declassifications.clear();
    s.violation_count = 0;
    s.declassification_count = 0;
}

} // namespace sevf::taint
