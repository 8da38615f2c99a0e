#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <type_traits>
#include <variant>

#include "base/logging.h"
#include "base/mutex.h"
#include "obs/families.h"

namespace sevf::obs {
namespace {

std::atomic<bool> g_metrics_enabled{false};

/** Round-robin slot assignment; threads keep their slot for life. */
std::atomic<unsigned> g_next_slot{0};

} // namespace

bool
metricsEnabled()
{
    return g_metrics_enabled.load(std::memory_order_relaxed);
}

void
setMetricsEnabled(bool on)
{
    g_metrics_enabled.store(on, std::memory_order_relaxed);
}

unsigned
threadShardSlot()
{
    thread_local unsigned slot =
        g_next_slot.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
    return slot;
}

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
    case MetricKind::kCounter:
        return "counter";
    case MetricKind::kGauge:
        return "gauge";
    case MetricKind::kHistogram:
        return "histogram";
    }
    return "unknown";
}

// ---- Histogram -----------------------------------------------------------

Histogram::Histogram(std::vector<u64> bounds)
    : bounds_(std::move(bounds)), shards_(kMetricShards)
{
    SEVF_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
    for (Shard &s : shards_) {
        s.buckets = std::vector<std::atomic<u64>>(bounds_.size() + 1);
    }
}

std::size_t
Histogram::bucketFor(u64 v) const
{
    // Upper bounds are inclusive: v == bounds_[i] lands in bucket i.
    return static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin());
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot out;
    out.bounds = bounds_;
    out.counts.assign(bounds_.size() + 1, 0);
    for (const Shard &s : shards_) {
        for (std::size_t i = 0; i < s.buckets.size(); ++i) {
            out.counts[i] += s.buckets[i].load(std::memory_order_relaxed);
        }
        out.sum += s.sum.load(std::memory_order_relaxed);
    }
    for (u64 c : out.counts) {
        out.count += c;
    }
    return out;
}

void
Histogram::reset()
{
    for (Shard &s : shards_) {
        for (std::atomic<u64> &b : s.buckets) {
            b.store(0, std::memory_order_relaxed);
        }
        s.sum.store(0, std::memory_order_relaxed);
    }
}

// ---- Registry ------------------------------------------------------------

namespace {

/**
 * Shared duration buckets (nanoseconds): 1us .. ~17s in powers of 4,
 * 13 buckets covering microsecond kernel calls and multi-second
 * simulated OVMF boots.
 */
std::vector<u64>
defaultTimeBoundsNs()
{
    std::vector<u64> bounds;
    for (u64 b = 1000; b <= 17'179'869'184ULL; b *= 4) {
        bounds.push_back(b);
    }
    return bounds;
}

struct Entry {
    const Family *family = nullptr;
    Labels labels;
    std::variant<Counter, Gauge, Histogram> metric;
};

} // namespace

struct Registry::Impl {
    mutable base::Mutex mu;
    // Keyed by name{label=value}; std::map keeps snapshot order
    // deterministic.
    std::map<std::string, Entry> entries SEVF_GUARDED_BY(mu);
};

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

Registry::Impl &
Registry::impl() const
{
    static Impl impl;
    return impl;
}

template <class M>
M &
Registry::get(const Family &family, std::string_view value)
{
    if (family.label.empty() && !value.empty()) {
        panic("unlabelled metric family given a label value: ",
              family.name);
    }
    // name{key=value,} for a labelled family, name{} otherwise.
    std::string key(family.name);
    key += '{';
    if (!family.label.empty()) {
        key.append(family.label).append("=").append(value).append(",");
    }
    key += '}';

    Impl &i = impl();
    base::MutexLock lock(i.mu);
    auto [it, fresh] = i.entries.try_emplace(std::move(key));
    Entry &e = it->second;
    if (fresh) {
        e.family = &family;
        if (!family.label.empty()) {
            e.labels = {{std::string(family.label), std::string(value)}};
        }
        if constexpr (std::is_same_v<M, Histogram>) {
            e.metric.emplace<Histogram>(defaultTimeBoundsNs());
        } else {
            e.metric.emplace<M>();
        }
    }
    M *m = std::get_if<M>(&e.metric);
    if (m == nullptr) {
        panic("metric family re-registered with a different kind: ",
              family.name);
    }
    return *m;
}

template Counter &Registry::get<Counter>(const Family &, std::string_view);
template Gauge &Registry::get<Gauge>(const Family &, std::string_view);
template Histogram &Registry::get<Histogram>(const Family &,
                                             std::string_view);

std::vector<MetricSnapshot>
Registry::snapshot() const
{
    Impl &i = impl();
    base::MutexLock lock(i.mu);
    std::vector<MetricSnapshot> out;
    out.reserve(i.entries.size());
    for (const auto &[key, e] : i.entries) {
        MetricSnapshot snap;
        snap.name = std::string(e.family->name);
        snap.help = std::string(e.family->help);
        snap.kind = e.family->kind;
        snap.labels = e.labels;
        if (const Counter *c = std::get_if<Counter>(&e.metric)) {
            snap.counter_value = c->value();
        } else if (const Gauge *g = std::get_if<Gauge>(&e.metric)) {
            snap.gauge_value = g->value();
        } else {
            snap.histogram = std::get<Histogram>(e.metric).snapshot();
        }
        out.push_back(std::move(snap));
    }
    return out;
}

void
Registry::reset()
{
    Impl &i = impl();
    base::MutexLock lock(i.mu);
    for (auto &[key, e] : i.entries) {
        std::visit([](auto &m) { m.reset(); }, e.metric);
    }
}

// ---- Kernel metrics ------------------------------------------------------

namespace {

/** Memoized per-kernel metric pairs, keyed by kernel name. */
struct KernelMetricsCache {
    base::Mutex mu;
    std::map<std::string, std::unique_ptr<KernelMetrics>> entries
        SEVF_GUARDED_BY(mu);
};

KernelMetricsCache &
kernelMetricsCache()
{
    static KernelMetricsCache cache;
    return cache;
}

} // namespace

KernelMetrics &
kernelMetrics(const char *kernel)
{
    KernelMetricsCache &cache = kernelMetricsCache();
    base::MutexLock lock(cache.mu);
    auto it = cache.entries.find(kernel);
    if (it != cache.entries.end()) {
        return *it->second;
    }
    auto metrics = std::make_unique<KernelMetrics>(KernelMetrics{
        kKernelBytes.metric(kernel), kKernelWallNs.metric(kernel)});
    return *cache.entries.emplace(kernel, std::move(metrics)).first->second;
}

} // namespace sevf::obs
