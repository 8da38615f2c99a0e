/**
 * @file
 * Process-wide metrics registry: counters, gauges, and fixed-bucket
 * histograms with a lock-free fast path.
 *
 * The launch pipeline is instrumented end to end (PSP commands, crypto
 * and compression kernels, memory staging, warm-pool hits, per-phase
 * simulated time); this module is the substrate those sites write to.
 * Design rules, in the order they matter:
 *
 *  - Near-zero cost when disabled. Every mutation starts with a relaxed
 *    atomic load of the master switch and returns immediately when it is
 *    off; instrumentation sites cost one predictable branch. The switch
 *    defaults to off, so test and bench binaries that never opt in pay
 *    nothing but the branch.
 *  - Lock-free when enabled. Counters and histograms shard their cells
 *    per thread (64 cache-line-padded slots indexed by a thread-local
 *    slot id, the same sharding idiom as the taint runtime's label map),
 *    so parallelFor workers hammering the same kernel counter never
 *    contend on a cache line. Reads aggregate across shards and are
 *    approximate only while writers are mid-flight.
 *  - Declared once. Every family is one row of obs/families.h; a site
 *    names the row (FamilyOf below) and never looks anything up while
 *    metrics are off. Series live for the process lifetime. The
 *    registry's mutex-protected state carries SEVF_GUARDED_BY
 *    annotations (base/thread_annotations.h) checked by Clang
 *    -Wthread-safety and sevf_lint's guarded-by pass.
 *
 * Exporters (Prometheus text, JSON snapshot) live in obs/export.h; span
 * tracing lives in obs/span.h. docs/OBSERVABILITY.md is the operator
 * reference for every family in obs/families.h, and sevf_obscheck
 * --docs fails when one is missing from it.
 */
#ifndef SEVF_OBS_METRICS_H_
#define SEVF_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/types.h"

namespace sevf::obs {

/** Master switch for metric mutation (default off). */
bool metricsEnabled();
void setMetricsEnabled(bool on);

/** Monotonic wall-clock nanoseconds (steady_clock). */
inline u64
wallNowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Number of per-thread shards in counters/histograms. */
inline constexpr unsigned kMetricShards = 64;

/** This thread's shard slot in [0, kMetricShards). */
unsigned threadShardSlot();

/** Prometheus-style label set: ordered (key, value) pairs. */
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : u8 { kCounter, kGauge, kHistogram };

const char *metricKindName(MetricKind kind);

namespace detail {
/** One cache line per shard so concurrent writers never false-share. */
struct alignas(64) ShardCell {
    std::atomic<u64> value{0};
};
} // namespace detail

/** Monotonically increasing counter. */
class Counter
{
  public:
    static constexpr MetricKind kKind = MetricKind::kCounter;

    void
    add(u64 n = 1)
    {
        if (!metricsEnabled()) {
            return;
        }
        shards_[threadShardSlot()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Aggregate over all shards (approximate while writers run). */
    u64
    value() const
    {
        u64 sum = 0;
        for (const detail::ShardCell &s : shards_) {
            sum += s.value.load(std::memory_order_relaxed);
        }
        return sum;
    }

    /** Zero every shard (Registry::reset). */
    void
    reset()
    {
        for (detail::ShardCell &s : shards_) {
            s.value.store(0, std::memory_order_relaxed);
        }
    }

  private:
    detail::ShardCell shards_[kMetricShards];
};

/**
 * Point-in-time value with set/add/setMax. Gauges are low-rate (queue
 * depths, derived throughput), so a single atomic cell suffices; set()
 * semantics cannot shard anyway.
 */
class Gauge
{
  public:
    static constexpr MetricKind kKind = MetricKind::kGauge;

    void
    set(i64 v)
    {
        if (!metricsEnabled()) {
            return;
        }
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(i64 delta)
    {
        if (!metricsEnabled()) {
            return;
        }
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Raise the gauge to @p v if it is below (peak tracking). */
    void
    setMax(i64 v)
    {
        if (!metricsEnabled()) {
            return;
        }
        i64 cur = value_.load(std::memory_order_relaxed);
        while (cur < v && !value_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    i64 value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<i64> value_{0};
};

/** Aggregated histogram state for exporters. */
struct HistogramSnapshot {
    /** Inclusive upper bounds; the implicit +Inf bucket is counts.back(). */
    std::vector<u64> bounds;
    /**
     * bounds.size() + 1 per-bucket (NOT cumulative) counts: counts[i]
     * holds observations in (bounds[i-1], bounds[i]]; the Prometheus
     * exporter accumulates them into "le" form.
     */
    std::vector<u64> counts;
    u64 count = 0;
    u64 sum = 0;
};

/**
 * Fixed-bucket histogram over u64 values (nanoseconds, bytes, depths).
 * Bucket bounds are inclusive upper edges ("le" in Prometheus terms) and
 * are fixed at registration; an implicit +Inf bucket catches the rest.
 */
class Histogram
{
  public:
    static constexpr MetricKind kKind = MetricKind::kHistogram;

    explicit Histogram(std::vector<u64> bounds);

    void
    observe(u64 v)
    {
        if (!metricsEnabled()) {
            return;
        }
        Shard &s = shards_[threadShardSlot()];
        s.buckets[bucketFor(v)].fetch_add(1, std::memory_order_relaxed);
        s.sum.fetch_add(v, std::memory_order_relaxed);
    }

    const std::vector<u64> &bounds() const { return bounds_; }
    HistogramSnapshot snapshot() const;
    void reset();

  private:
    struct alignas(64) Shard {
        std::vector<std::atomic<u64>> buckets;
        std::atomic<u64> sum{0};
    };

    /** Index of the first bucket whose bound is >= v (last = +Inf). */
    std::size_t bucketFor(u64 v) const;

    std::vector<u64> bounds_;
    std::vector<Shard> shards_;
};

/** Exporter view of one registered metric. */
struct MetricSnapshot {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    Labels labels;
    u64 counter_value = 0;
    i64 gauge_value = 0;
    HistogramSnapshot histogram;
};

/** The CI gates that require a family (bits of Family::contracts). */
enum Contract : unsigned {
    kNoContract = 0,
    kBootExport = 1,  //!< present in every sevf_boot export
    kServeExport = 2, //!< present in every sevf_serve export
    kRunbook = 4,     //!< documented in docs/RELIABILITY.md
};

/** Everything an export says about one metric family. */
struct Family {
    std::string_view name;
    MetricKind kind;
    /** The family's one label key; empty when it has none. */
    std::string_view label;
    unsigned contracts;
    std::string_view help;
};

/**
 * The process-wide registry, keyed by (family name, label value). The
 * first lookup creates the metric; two families sharing a name with
 * different kinds panic. Histograms share duration buckets of 1us ..
 * ~17s in powers of four. Entries point at their Family, so families
 * are namespace-scope objects that outlive every lookup.
 */
class Registry
{
  public:
    static Registry &instance();

    /**
     * Snapshot every registered metric, sorted by (name, labels) so
     * exports are deterministic.
     */
    std::vector<MetricSnapshot> snapshot() const;

    /** Zero all values, keeping registrations (tests). */
    void reset();

  private:
    template <class M>
    friend class FamilyOf;

    Registry() = default;
    struct Impl;
    Impl &impl() const;

    /** The metric for (@p family, label @p value); takes the lock. */
    template <class M>
    M &get(const Family &family, std::string_view value);
};

/**
 * One row of obs/families.h, for metric type @p M. A site is one call
 * naming the row; a labelled family takes the label value first:
 *
 *   obs::kWarmPoolHits.add();
 *   obs::kLaunchTotal.add(strategyName(kind));
 *   obs::kPspGateWaitNs.observe(waited_ns);
 *
 * Those calls look nothing up while metrics are off. metric() registers
 * a series (eager sites, tests). An unlabelled family caches its
 * series, so only a labelled lookup takes the registry lock.
 */
template <class M>
class FamilyOf : public Family
{
  public:
    constexpr FamilyOf(std::string_view name, std::string_view label,
                       unsigned contracts, std::string_view help)
        : Family{name, M::kKind, label, contracts, help}
    {
    }

    /** The series for label @p value (none when unlabelled). */
    M &
    metric(std::string_view value = {}) const
    {
        if (!label.empty()) {
            return Registry::instance().get<M>(*this, value);
        }
        M *m = cached_.load(std::memory_order_acquire);
        if (m == nullptr) {
            m = &Registry::instance().get<M>(*this, value);
            cached_.store(m, std::memory_order_release);
        }
        return *m;
    }

  private:
    mutable std::atomic<M *> cached_{nullptr};
};

class CounterFamily : public FamilyOf<Counter>
{
  public:
    using FamilyOf::FamilyOf;

    void add(u64 n = 1) const { add({}, n); }

    void
    add(std::string_view value, u64 n = 1) const
    {
        if (metricsEnabled()) {
            metric(value).add(n);
        }
    }
};

class GaugeFamily : public FamilyOf<Gauge>
{
  public:
    using FamilyOf::FamilyOf;

    void
    set(i64 v) const
    {
        if (metricsEnabled()) {
            metric().set(v);
        }
    }

    void
    setMax(i64 v) const
    {
        if (metricsEnabled()) {
            metric().setMax(v);
        }
    }
};

class HistogramFamily : public FamilyOf<Histogram>
{
  public:
    using FamilyOf::FamilyOf;

    void observe(u64 v) const { observe({}, v); }

    void
    observe(std::string_view value, u64 v) const
    {
        if (metricsEnabled()) {
            metric(value).observe(v);
        }
    }
};

/** The (bytes, ns) counter pair behind one named kernel. */
struct KernelMetrics {
    Counter &bytes_total;
    Counter &wall_ns_total;
};

/**
 * Per-kernel throughput instrumentation: registers (and memoizes)
 * sevf_kernel_bytes_total / sevf_kernel_wall_ns_total with
 * kernel=@p kernel. Cache the reference in a function-local static.
 */
KernelMetrics &kernelMetrics(const char *kernel);

/**
 * RAII wall-clock timer for one kernel invocation: adds bytes and
 * elapsed nanoseconds to the kernel's counters at scope exit. Costs one
 * branch when metrics are disabled.
 */
class KernelTimer
{
  public:
    KernelTimer(KernelMetrics &metrics, u64 bytes)
        : metrics_(metrics), bytes_(bytes),
          start_ns_(metricsEnabled() ? wallNowNs() : 0)
    {
    }

    ~KernelTimer()
    {
        if (start_ns_ != 0) {
            metrics_.bytes_total.add(bytes_);
            metrics_.wall_ns_total.add(wallNowNs() - start_ns_);
        }
    }

    KernelTimer(const KernelTimer &) = delete;
    KernelTimer &operator=(const KernelTimer &) = delete;

  private:
    KernelMetrics &metrics_;
    u64 bytes_;
    u64 start_ns_;
};

} // namespace sevf::obs

#endif // SEVF_OBS_METRICS_H_
