/**
 * @file
 * Host wall-clock benchmark of the launch stack.
 *
 *   perfbench --workload cold_boot|warm_serve|cache_churn --seed N
 *             --seconds S --trace 0|1 [--corrupt-reference] [--rev REV]
 *
 * Each workload drives the program only through its public entry points
 * (core::makeStrategy(..)->launch, service::LaunchService::submit and
 * LaunchTicket::take) with inputs generated up front from the seed:
 *
 *  - cold_boot:   one closed-loop client, severifast-bzimage at scale
 *                 1.0 with the template cache bypassed, host_threads =
 *                 nproc, rotating lupine/aws/ubuntu.
 *  - warm_serve:  an open loop of seeded Poisson arrivals at a fixed
 *                 rate through LaunchService; three tenants (weights
 *                 4/1/2), 12 launch keys, all prewarmed in the cache.
 *  - cache_churn: nproc closed-loop clients through LaunchService,
 *                 Zipf(1) over 60 launch keys with a cache a third of
 *                 the working set, warmed to steady state first.
 *
 * Set-up (artifact synthesis, reference launches, cache prewarm) is
 * timed as setup_s and never overlaps the timed window. Every timed
 * launch passes a correctness gate: its launch measurement and
 * simulated total time must equal a reference recorded during set-up
 * by a cache-bypassing launch with host_threads = 1, and launches of a
 * networked kernel under an SEV strategy must have attested.
 *
 * With --trace 0 the timed window runs with metrics and tracing off and
 * the end-to-end metrics are reported. With --trace 1 the window is
 * split: the first half runs untraced, the second with the span log and
 * the metric registry on; the program's existing spans and counters
 * (no new ones) give the per-layer table, and the latency ratio of the
 * two halves gives the tracing overhead.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed, metrics ({name: {value, unit}}), plus samples, valid and the
 * machine fingerprint. Exit status is non-zero when any timed launch
 * failed the gate or the run was invalid.
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/bytes.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "cache/template_cache.h"
#include "core/launch.h"
#include "crypto/aes128.h"
#include "crypto/sha256.h"
#include "layer_table.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "service/launch_service.h"
#include "workload/kernel_spec.h"
#include "workload/synthetic.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace sevf;

namespace {

using Clock = std::chrono::steady_clock;

/** Initialized before main(): the reference point of setup_s. */
const Clock::time_point g_process_start = Clock::now();

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "perfbench: %s\n", message.c_str());
    std::exit(2);
}

// ---- inputs -------------------------------------------------------------

struct Options {
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    bool corrupt_reference = false;
    std::string rev = "unknown";
};

u64
parseU64(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0') {
        die(flag + " expects a whole number, got \"" + text + "\"");
    }
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                die(flag + " needs a value");
            }
            return argv[++i];
        };
        if (flag == "--workload") {
            o.workload = value();
        } else if (flag == "--seed") {
            o.seed = parseU64(flag, value());
        } else if (flag == "--seconds") {
            std::string v = value();
            char *end = nullptr;
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0)) {
                die("--seconds expects a positive number");
            }
        } else if (flag == "--trace") {
            o.trace = parseU64(flag, value()) != 0;
        } else if (flag == "--corrupt-reference") {
            o.corrupt_reference = true;
        } else if (flag == "--rev") {
            o.rev = value();
        } else {
            die("unknown flag " + flag);
        }
    }
    if (o.workload.empty()) {
        die("--workload is required");
    }
    return o;
}

/** One launch key: what the gate compares against its reference. */
struct LaunchSpec {
    core::StrategyKind kind = core::StrategyKind::kSeveriFastBz;
    workload::KernelConfig kernel = workload::KernelConfig::kAws;
    u32 vcpus = 1;
    double scale = 1.0;

    std::string
    name() const
    {
        return std::string(core::strategyName(kind)) + "/" +
               workload::kernelConfigName(kernel) + "/vcpus" +
               std::to_string(vcpus);
    }
};

core::LaunchRequest
makeRequest(const LaunchSpec &spec, unsigned host_threads, bool use_cache)
{
    core::LaunchRequest r;
    r.kernel = spec.kernel;
    r.scale = spec.scale;
    r.vm.vcpus = spec.vcpus;
    r.host_threads = host_threads;
    r.use_template_cache = use_cache;
    return r;
}

constexpr workload::KernelConfig kKernels[] = {
    workload::KernelConfig::kLupine, workload::KernelConfig::kAws,
    workload::KernelConfig::kUbuntu};

/** Tenants shared by the two service workloads (examples/service_trace). */
struct TenantSpec {
    const char *id;
    u32 weight;
};
constexpr TenantSpec kTenants[] = {{"alpha", 4}, {"batch", 1}, {"canary", 2}};

/** Tenant draw proportional to DRR weight. */
std::size_t
drawTenant(Rng &rng)
{
    u64 total = 0;
    for (const TenantSpec &t : kTenants) {
        total += t.weight;
    }
    u64 x = rng.nextBelow(total);
    for (std::size_t i = 0; i < std::size(kTenants); ++i) {
        if (x < kTenants[i].weight) {
            return i;
        }
        x -= kTenants[i].weight;
    }
    return 0;
}

unsigned
nproc()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

// ---- correctness gate ---------------------------------------------------

struct Reference {
    crypto::Sha256Digest measurement{};
    i64 total_ns = 0;
};

bool
mustAttest(const LaunchSpec &spec)
{
    return spec.kind != core::StrategyKind::kStockFirecracker &&
           workload::kernelSpec(spec.kernel).has_network;
}

/** The gate: bit-identical to the reference, attested where required. */
bool
matchesReference(const LaunchSpec &spec, const Reference &ref,
                 const Result<core::LaunchResult> &result)
{
    return result.isOk() && result->measurement == ref.measurement &&
           result->totalTime().ns() == ref.total_ns &&
           (result->attested || !mustAttest(spec));
}

/**
 * One cache-bypassing, host_threads=1 launch per spec, spread over
 * nproc threads (each launch is serial inside).
 */
std::vector<Reference>
recordReferences(core::Platform &platform, const std::vector<LaunchSpec> &specs)
{
    std::vector<Reference> refs(specs.size());
    std::vector<std::string> errors(specs.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next++; i < specs.size(); i = next++) {
            Result<core::LaunchResult> r =
                core::makeStrategy(specs[i].kind)
                    ->launch(platform, makeRequest(specs[i], 1, false));
            if (!r.isOk()) {
                errors[i] = r.status().toString();
                continue;
            }
            if (mustAttest(specs[i]) && !r->attested) {
                errors[i] = "reference launch did not attest";
                continue;
            }
            refs[i] = {r->measurement, r->totalTime().ns()};
        }
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < std::min<std::size_t>(nproc(), specs.size());
         ++t) {
        threads.emplace_back(worker);
    }
    for (std::thread &t : threads) {
        t.join();
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!errors[i].empty()) {
            die("reference " + specs[i].name() + ": " + errors[i]);
        }
    }
    return refs;
}

// ---- timed-window bookkeeping ------------------------------------------

/** What one timed window produced. */
struct Window {
    std::vector<double> latency_ms;
    u64 attempted = 0;
    u64 failed = 0;
    u64 completed_in_window = 0;
    double seconds = 0;
    u64 verifier_pages = 0;
    u64 verifier_bytes_hashed = 0;
    u64 verifier_bytes_copied = 0;
    double submit_ns = 0;
    u64 submits = 0;
    std::vector<double> gen_lag_ms;
    /** Open loop only: mean in-system launches at start and end. */
    double backlog_start = 0;
    double backlog_end = 0;
    bool valid = true;

    /** Fold one resolved launch into the window. */
    void
    record(const LaunchSpec &spec, const Reference &ref,
           const Result<core::LaunchResult> &result, double latency)
    {
        attempted++;
        if (!matchesReference(spec, ref, result)) {
            failed++;
            return;
        }
        latency_ms.push_back(latency);
        if (!result->cache_hit) {
            verifier_pages += result->verifier_stats.pages_validated;
            verifier_bytes_hashed += result->verifier_stats.bytes_hashed;
            verifier_bytes_copied += result->verifier_stats.bytes_copied;
        }
    }

    void
    merge(const Window &o)
    {
        latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                          o.latency_ms.end());
        attempted += o.attempted;
        failed += o.failed;
        completed_in_window += o.completed_in_window;
        verifier_pages += o.verifier_pages;
        verifier_bytes_hashed += o.verifier_bytes_hashed;
        verifier_bytes_copied += o.verifier_bytes_copied;
        submit_ns += o.submit_ns;
        submits += o.submits;
        seconds += o.seconds;
    }
};

/** Nearest-rank percentile (p in (0, 1]); 0 for an empty sample. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** Highest percentile with at least ten samples beyond it. */
double
supportedPercentile(std::size_t n)
{
    return n <= 10 ? 0 : 1.0 - 10.0 / static_cast<double>(n);
}

// ---- workloads ----------------------------------------------------------

struct SetupInfo {
    double synth_s = 0;
    double lz4_compress_ms = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Synthesis, references, prewarm; everything before the window. */
    virtual void setUp() = 0;
    /** One timed window of @p seconds, continuing the input sequence. */
    virtual Window measure(double seconds) = 0;
    /** Service layer, when the workload uses one. */
    virtual service::LaunchService *service() { return nullptr; }

    core::Platform &platform() { return platform_; }
    const SetupInfo &setupInfo() const { return setup_; }

    /** Flip one byte of one reference digest (gate self-test). */
    void
    corruptReference()
    {
        refs_.front().measurement[0] ^= 0x5a;
    }

  protected:
    /** Synthesize every artifact the specs need, timed as synth_s. */
    void
    synthesize()
    {
        Clock::time_point t0 = Clock::now();
        std::vector<double> scales;
        for (const LaunchSpec &s : specs_) {
            if (std::find(scales.begin(), scales.end(), s.scale) ==
                scales.end()) {
                scales.push_back(s.scale);
            }
        }
        for (double scale : scales) {
            (void)workload::cachedInitrd(scale);
            for (workload::KernelConfig k : kKernels) {
                (void)workload::cachedKernelArtifacts(k, scale);
            }
        }
        setup_.synth_s = secondsBetween(t0, Clock::now());
        setup_.lz4_compress_ms =
            static_cast<double>(
                obs::kernelMetrics("lz4_compress").wall_ns_total.value()) /
            1e6;
    }

    core::Platform platform_;
    std::vector<LaunchSpec> specs_;
    std::vector<Reference> refs_;
    SetupInfo setup_;
};

/** Closed loop, one client, cold severifast-bzimage at paper scale. */
class ColdBoot final : public Workload
{
  public:
    explicit ColdBoot(u64 seed, double seconds)
    {
        for (workload::KernelConfig k : kKernels) {
            specs_.push_back(
                {core::StrategyKind::kSeveriFastBz, k, 1, 1.0});
        }
        // Rotation: every round of three launches boots each kernel
        // once, in a seeded order.
        Rng rng(seed);
        std::size_t rounds =
            static_cast<std::size_t>(seconds * 40) + 16;
        for (std::size_t r = 0; r < rounds; ++r) {
            std::size_t order[] = {0, 1, 2};
            for (std::size_t i = 2; i > 0; --i) {
                std::swap(order[i], order[rng.nextBelow(i + 1)]);
            }
            sequence_.insert(sequence_.end(), std::begin(order),
                             std::end(order));
        }
    }

    void
    setUp() override
    {
        synthesize();
        refs_ = recordReferences(platform_, specs_);
        // Warm-up: first-touch of the pool threads and the allocator.
        for (const LaunchSpec &s : specs_) {
            (void)core::makeStrategy(s.kind)->launch(
                platform_, makeRequest(s, nproc(), false));
        }
    }

    Window
    measure(double seconds) override
    {
        Window w;
        Clock::time_point start = Clock::now();
        Clock::time_point deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        while (Clock::now() < deadline) {
            std::size_t k = sequence_[next_++ % sequence_.size()];
            const LaunchSpec &spec = specs_[k];
            core::LaunchRequest request = makeRequest(spec, nproc(), false);
            std::unique_ptr<core::BootStrategy> strategy =
                core::makeStrategy(spec.kind);
            Clock::time_point t0 = Clock::now();
            Result<core::LaunchResult> result =
                strategy->launch(platform_, request);
            w.record(spec, refs_[k], result, msBetween(t0, Clock::now()));
        }
        w.seconds = secondsBetween(start, Clock::now());
        w.completed_in_window = w.attempted;
        return w;
    }

  private:
    std::vector<std::size_t> sequence_;
    std::size_t next_ = 0;
};

/** Register the three tenants with cache shares summing to @p budget. */
void
registerTenants(service::LaunchService &svc, u64 budget)
{
    u64 weights = 0;
    for (const TenantSpec &t : kTenants) {
        weights += t.weight;
    }
    for (const TenantSpec &t : kTenants) {
        service::TenantQuota q;
        q.weight = t.weight;
        q.cache_share_bytes = budget / weights * t.weight;
        Status s = svc.registerTenant(t.id, q);
        if (!s.isOk()) {
            die("register tenant: " + s.toString());
        }
    }
}

/** Submit every spec once through @p svc and check each result. */
void
submitAllAndCheck(service::LaunchService &svc,
                  const std::vector<LaunchSpec> &specs,
                  const std::vector<Reference> &refs,
                  const std::vector<std::size_t> &which)
{
    std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
    for (std::size_t n = 0; n < which.size(); ++n) {
        const LaunchSpec &s = specs[which[n]];
        tickets.push_back(svc.submit(kTenants[n % std::size(kTenants)].id,
                                     s.kind, makeRequest(s, 1, true)));
    }
    for (std::size_t n = 0; n < which.size(); ++n) {
        Result<core::LaunchResult> r = tickets[n]->take();
        if (!matchesReference(specs[which[n]], refs[which[n]], r)) {
            die("prewarm launch " + specs[which[n]].name() +
                " failed the gate");
        }
    }
}

/** Open loop: seeded Poisson arrivals through LaunchService, all warm. */
class WarmServe final : public Workload
{
  public:
    /** A fifth of the closed-loop warm capacity of a healthy 4-core
     *  host (about 2,000/s), so a host running at half speed still
     *  leaves the workers half idle and latency measures service time
     *  rather than a queue on the edge of saturation. */
    static constexpr double kRatePerSecond = 400;

    WarmServe(u64 seed, double seconds)
    {
        for (workload::KernelConfig k : kKernels) {
            for (core::StrategyKind s : {core::StrategyKind::kSeveriFastBz,
                                         core::StrategyKind::kSeveriFastVmlinux}) {
                for (u32 vcpus : {1u, 2u}) {
                    specs_.push_back({s, k, vcpus, 0.25});
                }
            }
        }
        Rng rng(seed);
        double t = 0;
        // Arrivals for the whole run plus slack; measure() consumes them.
        while (t < seconds + 1) {
            t += -std::log(1.0 - rng.nextDouble()) / kRatePerSecond;
            arrivals_.push_back({t, rng.nextBelow(specs_.size()),
                                 drawTenant(rng)});
        }
    }

    void
    setUp() override
    {
        synthesize();
        refs_ = recordReferences(platform_, specs_);
        service::ServiceConfig cfg;
        cfg.workers = nproc();
        cfg.queue_depth = 4096;
        svc_ = std::make_unique<service::LaunchService>(platform_, registry_,
                                                        cfg);
        // Room for every template: all timed launches are warm hits.
        registerTenants(*svc_, u64{4} << 30);
        std::vector<std::size_t> all(specs_.size());
        for (std::size_t i = 0; i < all.size(); ++i) {
            all[i] = i;
        }
        submitAllAndCheck(*svc_, specs_, refs_, all); // cold builds
        submitAllAndCheck(*svc_, specs_, refs_, all); // first warm touch
        svc_->drain();
    }

    service::LaunchService *service() override { return svc_.get(); }

    Window measure(double seconds) override;

  private:
    struct Arrival {
        double at_s;
        std::size_t spec;
        std::size_t tenant;
    };
    struct Pending {
        std::size_t spec;
        double due_ms; //!< relative to the window start
        std::shared_ptr<core::LaunchTicket> ticket;
    };

    service::TenantRegistry registry_;
    std::unique_ptr<service::LaunchService> svc_;
    std::vector<Arrival> arrivals_;
    std::size_t next_ = 0;
};

Window
WarmServe::measure(double seconds)
{
    Window w;
    // Generator -> collector hand-off. The collector polls ready() so a
    // slow ticket never delays the completion stamps of later ones.
    std::mutex mu;
    std::vector<Pending> handoff;
    bool generating = true;
    std::atomic<u64> resolved{0};
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);

    std::thread collector([&] {
        std::vector<Pending> open;
        for (;;) {
            bool done = false;
            {
                std::lock_guard<std::mutex> lock(mu);
                open.insert(open.end(),
                            std::make_move_iterator(handoff.begin()),
                            std::make_move_iterator(handoff.end()));
                handoff.clear();
                done = !generating;
            }
            for (std::size_t i = 0; i < open.size();) {
                if (!open[i].ticket->ready()) {
                    ++i;
                    continue;
                }
                double stamp_ms = msBetween(start, Clock::now());
                Result<core::LaunchResult> r = open[i].ticket->take();
                w.record(specs_[open[i].spec], refs_[open[i].spec], r,
                         stamp_ms - open[i].due_ms);
                if (stamp_ms <= seconds * 1e3) {
                    w.completed_in_window++;
                }
                resolved++;
                open[i] = std::move(open.back());
                open.pop_back();
            }
            if (done && open.empty()) {
                return;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });

    const double base_s = next_ < arrivals_.size() ? arrivals_[next_].at_s : 0;
    std::vector<double> backlog;
    u64 submitted = 0;
    while (next_ < arrivals_.size()) {
        const Arrival &a = arrivals_[next_];
        double offset_s = a.at_s - base_s;
        if (offset_s >= seconds) {
            break;
        }
        next_++;
        Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offset_s));
        std::this_thread::sleep_until(due); // sleep, never spin
        Clock::time_point t0 = Clock::now();
        w.gen_lag_ms.push_back(msBetween(due, t0));
        backlog.push_back(static_cast<double>(submitted - resolved.load()));
        const LaunchSpec &spec = specs_[a.spec];
        std::shared_ptr<core::LaunchTicket> ticket = svc_->submit(
            kTenants[a.tenant].id, spec.kind, makeRequest(spec, 1, true));
        w.submit_ns += std::chrono::duration<double, std::nano>(
                           Clock::now() - t0)
                           .count();
        w.submits++;
        submitted++;
        std::lock_guard<std::mutex> lock(mu);
        handoff.push_back({a.spec, offset_s * 1e3, std::move(ticket)});
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        generating = false;
    }
    collector.join();
    w.seconds = seconds;

    // Backlog check: launches in the system at arrival time, first vs
    // last tenth of the window. A service that keeps up ends where it
    // started; one that cannot grows by more than its worker count.
    std::size_t tenth = std::max<std::size_t>(1, backlog.size() / 10);
    if (!backlog.empty()) {
        auto mean = [](auto b, auto e) {
            double s = 0;
            for (auto it = b; it != e; ++it) {
                s += *it;
            }
            return s / static_cast<double>(std::distance(b, e));
        };
        w.backlog_start = mean(backlog.begin(), backlog.begin() + tenth);
        w.backlog_end = mean(backlog.end() - tenth, backlog.end());
        w.valid = w.backlog_end <=
                  w.backlog_start + 2.0 * svc_->pipeline().workers();
    }
    return w;
}

/**
 * Closed loop: nproc clients, Zipf(1) over 60 keys, a third cached.
 *
 * The clients share one key stream. It is built from blocks whose key
 * counts follow Zipf(1) exactly, each shuffled by the seed, so the seed
 * moves the order of launches but not the mix: a run's miss work then
 * varies with cache dynamics, not with how many costly keys it drew.
 */
class CacheChurn final : public Workload
{
  public:
    static constexpr std::size_t kBlock = 256;
    static constexpr std::size_t kWarmupLaunches = 160;

    CacheChurn(u64 seed, double seconds)
    {
        // Popularity ranks. The first 48 interleave the four strategies
        // whose warm hits cost 0.5-3 ms with the kernels and vCPU
        // counts; sev-direct-boot, whose hits replay the whole
        // pre-encrypted kernel (about 10 ms), takes the 12 coldest ranks
        // and so runs mostly as cold builds. Its costly hits would
        // otherwise sit right at the median, where a few points of hit
        // fraction swing launch_p50_ms by half.
        constexpr core::StrategyKind kHead[] = {
            core::StrategyKind::kStockFirecracker,
            core::StrategyKind::kSeveriFastBz,
            core::StrategyKind::kSeveriFastVmlinux,
            core::StrategyKind::kQemuOvmfSev};
        for (u32 i = 0; i < 48; ++i) {
            specs_.push_back({kHead[i % 4], kKernels[i % 3], i / 12 + 1, 0.25});
        }
        for (u32 i = 0; i < 12; ++i) {
            specs_.push_back({core::StrategyKind::kSevDirectBoot,
                              kKernels[i % 3], i / 3 + 1, 0.25});
        }
        double harmonic = 0;
        for (std::size_t r = 1; r <= specs_.size(); ++r) {
            harmonic += 1.0 / static_cast<double>(r);
        }
        std::vector<std::size_t> block;
        for (std::size_t r = 1; r <= specs_.size(); ++r) {
            double share = static_cast<double>(kBlock) /
                           (static_cast<double>(r) * harmonic);
            block.insert(block.end(),
                         std::max<std::size_t>(1, std::lround(share)), r - 1);
        }
        block.resize(kBlock, 0); // rounding slack goes to the hottest key
        Rng rng(seed);
        std::size_t total = kWarmupLaunches +
                            static_cast<std::size_t>(seconds * 1000) + kBlock;
        while (stream_.size() < total) {
            for (std::size_t i = block.size() - 1; i > 0; --i) {
                std::swap(block[i], block[rng.nextBelow(i + 1)]);
            }
            for (std::size_t k : block) {
                stream_.push_back({k, drawTenant(rng)});
            }
        }
    }

    void
    setUp() override
    {
        synthesize();
        refs_ = recordReferences(platform_, specs_);
        service::ServiceConfig cfg;
        cfg.workers = nproc();
        svc_ = std::make_unique<service::LaunchService>(platform_, registry_,
                                                        cfg);
        registerTenants(*svc_, u64{64} << 30);
        // Working set: templates differ across vcpus only by VMSA pages,
        // so build the 15 one-vCPU keys and scale by four.
        std::vector<std::size_t> one_vcpu;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            if (specs_[i].vcpus == 1) {
                one_vcpu.push_back(i);
            }
        }
        submitAllAndCheck(*svc_, specs_, refs_, one_vcpu);
        working_set_bytes_ = platform_.templateCache().stats().bytes * 4;
        registerTenants(*svc_, working_set_bytes_ / 3);
        // Steady state: the clients run the stream's first launches.
        Window warm = drive(Clock::time_point::max(), kWarmupLaunches);
        if (warm.failed != 0) {
            die("cache_churn warm-up launch failed the gate");
        }
    }

    service::LaunchService *service() override { return svc_.get(); }

    Window
    measure(double seconds) override
    {
        return drive(Clock::now() +
                         std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds)),
                     std::numeric_limits<std::size_t>::max());
    }

  private:
    struct Draw {
        std::size_t spec;
        std::size_t tenant;
    };

    /** All clients, until @p deadline or stream position @p stop_at. */
    Window
    drive(Clock::time_point deadline, std::size_t stop_at)
    {
        Clock::time_point start = Clock::now();
        std::vector<Window> per_client(nproc());
        std::vector<std::thread> threads;
        for (Window &w : per_client) {
            threads.emplace_back([&] {
                while (Clock::now() < deadline) {
                    std::size_t i = cursor_++;
                    if (i >= stop_at) {
                        return;
                    }
                    const Draw &d = stream_[i % stream_.size()];
                    const LaunchSpec &spec = specs_[d.spec];
                    Clock::time_point t0 = Clock::now();
                    std::shared_ptr<core::LaunchTicket> ticket =
                        svc_->submit(kTenants[d.tenant].id, spec.kind,
                                     makeRequest(spec, 1, true));
                    w.submit_ns += std::chrono::duration<double, std::nano>(
                                       Clock::now() - t0)
                                       .count();
                    w.submits++;
                    Result<core::LaunchResult> r = ticket->take();
                    w.record(spec, refs_[d.spec], r,
                             msBetween(t0, Clock::now()));
                }
            });
        }
        for (std::thread &t : threads) {
            t.join();
        }
        Window w;
        for (const Window &c : per_client) {
            w.merge(c);
        }
        w.seconds = secondsBetween(start, Clock::now());
        w.completed_in_window = w.attempted;
        return w;
    }

    service::TenantRegistry registry_;
    std::unique_ptr<service::LaunchService> svc_;
    std::vector<Draw> stream_;
    std::atomic<std::size_t> cursor_{0};
    u64 working_set_bytes_ = 0;
};

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "cold_boot") {
        return std::make_unique<ColdBoot>(o.seed, o.seconds);
    }
    if (o.workload == "warm_serve") {
        return std::make_unique<WarmServe>(o.seed, o.seconds);
    }
    if (o.workload == "cache_churn") {
        return std::make_unique<CacheChurn>(o.seed, o.seconds);
    }
    die("unknown workload \"" + o.workload +
        "\" (cold_boot, warm_serve, cache_churn)");
}

// ---- reporting ----------------------------------------------------------

/** Ordered (name -> value, unit) list for the report and the JSON. */
class MetricList
{
  public:
    void
    add(std::string name, double value, std::string unit)
    {
        items_.push_back({std::move(name), value, std::move(unit)});
    }

    void
    print(const char *title) const
    {
        std::printf("%s\n", title);
        for (const Item &m : items_) {
            std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof value, "%.17g",
                          std::isfinite(items_[i].value) ? items_[i].value
                                                         : 0.0);
            out += (i ? ", \"" : "\"") + items_[i].name +
                   "\": {\"value\": " + value + ", \"unit\": \"" +
                   items_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Item {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
    }
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
fingerprintJson(const Options &o)
{
    std::string out = "{\"rev\": \"" + jsonEscape(o.rev) +
                      "\", \"cpu_model\": \"" + jsonEscape(cpuModel()) +
                      "\", \"nproc\": " + std::to_string(nproc()) +
                      ", \"hardware_threads\": " +
                      std::to_string(base::hardwareThreads()) +
                      ", \"sha_ni\": " +
                      (crypto::Sha256::hardwareAccelerated() ? "true"
                                                             : "false") +
                      ", \"aes_ni\": " +
                      (crypto::Aes128::hardwareAccelerated() ? "true"
                                                             : "false") +
                      ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
    return out;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Registry lookups over one snapshot. */
class RegistryView
{
  public:
    explicit RegistryView(std::vector<obs::MetricSnapshot> snap)
        : snap_(std::move(snap))
    {
    }

    /** Sum of counter values named @p name whose labels include @p kv. */
    double
    counter(const std::string &name, const std::string &label = "",
            const std::string &value = "") const
    {
        double sum = 0;
        for (const obs::MetricSnapshot &m : snap_) {
            if (m.name == name && matches(m, label, value)) {
                sum += static_cast<double>(m.counter_value);
            }
        }
        return sum;
    }

    double
    gauge(const std::string &name) const
    {
        for (const obs::MetricSnapshot &m : snap_) {
            if (m.name == name) {
                return static_cast<double>(m.gauge_value);
            }
        }
        return 0;
    }

    obs::HistogramSnapshot
    histogram(const std::string &name) const
    {
        for (const obs::MetricSnapshot &m : snap_) {
            if (m.name == name && m.kind == obs::MetricKind::kHistogram) {
                return m.histogram;
            }
        }
        return {};
    }

  private:
    static bool
    matches(const obs::MetricSnapshot &m, const std::string &label,
            const std::string &value)
    {
        if (label.empty()) {
            return true;
        }
        for (const auto &[k, v] : m.labels) {
            if (k == label && v == value) {
                return true;
            }
        }
        return false;
    }

    std::vector<obs::MetricSnapshot> snap_;
};

/**
 * Percentile of a fixed-bucket histogram, interpolated geometrically
 * inside the bucket (the default buckets grow in powers of four).
 */
double
histogramPercentile(const obs::HistogramSnapshot &h, double p)
{
    if (h.count == 0) {
        return 0;
    }
    double target = p * static_cast<double>(h.count);
    double seen = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
        double c = static_cast<double>(h.counts[i]);
        if (seen + c >= target && c > 0) {
            double lo = i == 0 ? 1.0 : static_cast<double>(h.bounds[i - 1]);
            double hi = i < h.bounds.size() ? static_cast<double>(h.bounds[i])
                                            : lo * 4;
            double f = (target - seen) / c;
            return lo * std::pow(hi / lo, f);
        }
        seen += c;
    }
    return static_cast<double>(h.bounds.back());
}

void
printLayerTable(const perfbench::LayerTable &t, double launches)
{
    std::printf("layer table (ms per timed launch; self time per thread)\n");
    std::printf("  %-10s %14s %14s %14s %10s\n", "layer", "launching",
                "workers", "outside", "spans");
    for (const auto &[name, row] : t.layers) {
        std::printf("  %-10s %14.4f %14.4f %14.4f %10llu\n", name.c_str(),
                    row.launching_ns / 1e6 / launches,
                    row.worker_ns / 1e6 / launches,
                    row.outside_ns / 1e6 / launches,
                    static_cast<unsigned long long>(row.spans));
    }
    std::printf("  residual (core.unattributed): %.4f ms/launch = %.1f%% "
                "of launch span time\n",
                t.unattributed_ns / 1e6 / launches,
                t.launch_ns > 0 ? 100.0 * t.unattributed_ns / t.launch_ns
                                : 0.0);
    std::printf("  reconcile: named self %.3f + residual %.3f vs launch "
                "spans %.3f ms (error %.3f%%, limit 5%%)\n",
                t.launching_self_ns / 1e6, t.unattributed_ns / 1e6,
                t.launch_ns / 1e6, 100.0 * t.reconcileError());
    std::printf("  spans by name (inclusive ms per launch, count)\n");
    for (const auto &[name, ns] : t.inclusive_ns) {
        std::printf("    %-38s %12.4f %10llu\n", name.c_str(),
                    ns / 1e6 / launches,
                    static_cast<unsigned long long>(t.span_count.at(name)));
    }
}

/** The per-layer metrics of one traced window. */
MetricList
layerMetrics(const Workload &wl, const Window &untraced, const Window &traced,
             const perfbench::LayerTable &t, const RegistryView &reg,
             const cache::TemplateCache::Stats &cache_delta,
             const core::AdmissionPipeline::Stats *pipe_delta)
{
    const double n =
        static_cast<double>(std::max<u64>(1, traced.attempted));
    auto ms = [&](double ns) { return ns / 1e6 / n; };
    auto mib = [&](double bytes) { return bytes / (1024.0 * 1024.0) / n; };
    auto span = [&](const char *name) {
        auto it = t.inclusive_ns.find(name);
        return it == t.inclusive_ns.end() ? 0.0 : it->second;
    };
    auto kernel_ns = [&](const char *k) {
        return reg.counter("sevf_kernel_wall_ns_total", "kernel", k);
    };
    auto kernel_bytes = [&](const char *k) {
        return reg.counter("sevf_kernel_bytes_total", "kernel", k);
    };

    MetricList m;
    m.add("workload.synth_s", wl.setupInfo().synth_s, "s");
    m.add("compress.lz4_compress_ms", wl.setupInfo().lz4_compress_ms, "ms");
    m.add("crypto.sha256_ms", ms(kernel_ns("sha256")), "ms/launch");
    m.add("crypto.sha256_mb", mib(kernel_bytes("sha256")), "MiB/launch");
    m.add("crypto.launch_digest_ms", ms(kernel_ns("launch_digest")),
          "ms/launch");
    m.add("crypto.xex_encrypt_ms", ms(kernel_ns("xex_encrypt")),
          "ms/launch");
    m.add("crypto.xex_encrypt_mb", mib(kernel_bytes("xex_encrypt")),
          "MiB/launch");
    m.add("crypto.xex_decrypt_ms", ms(kernel_ns("xex_decrypt")),
          "ms/launch");
    m.add("compress.lz4_decompress_ms", ms(kernel_ns("lz4_decompress")),
          "ms/launch");
    m.add("compress.lz4_decompress_mb", mib(kernel_bytes("lz4_decompress")),
          "MiB/launch");
    m.add("psp.commands", reg.counter("sevf_psp_commands_total") / n,
          "count/launch");
    m.add("psp.update_data_ms", ms(span("psp.launch_update_data")),
          "ms/launch");
    m.add("psp.premeasured_ms",
          ms(span("psp.launch_update_data_premeasured")), "ms/launch");
    m.add("psp.gate_wait_ms",
          ms(static_cast<double>(reg.histogram("sevf_psp_gate_wait_ns").sum)),
          "ms/launch");
    m.add("memory.host_write_ms", ms(span("guest_memory.host_write")),
          "ms/launch");
    m.add("memory.host_write_mb",
          mib(reg.counter("sevf_guest_memory_host_write_bytes_total")),
          "MiB/launch");
    m.add("memory.instantiate_snapshot_ms",
          ms(span("guest_memory.instantiate_snapshot")), "ms/launch");
    m.add("memory.capture_snapshot_ms",
          ms(span("guest_memory.capture_snapshot")), "ms/launch");
    m.add("memory.cow_pages_materialized",
          reg.counter("sevf_cow_pages_materialized_total") / n,
          "count/launch");
    m.add("verifier.bytes_hashed_mb",
          mib(static_cast<double>(traced.verifier_bytes_hashed)),
          "MiB/launch");
    m.add("verifier.bytes_copied_mb",
          mib(static_cast<double>(traced.verifier_bytes_copied)),
          "MiB/launch");
    m.add("verifier.pages_validated",
          static_cast<double>(traced.verifier_pages) / n, "count/launch");
    u64 lookups = cache_delta.hits + cache_delta.misses;
    m.add("cache.hit_frac",
          lookups == 0 ? 0.0
                       : static_cast<double>(cache_delta.hits) /
                             static_cast<double>(lookups),
          "frac");
    m.add("cache.evictions", static_cast<double>(cache_delta.evictions) / n,
          "count/launch");
    m.add("cache.single_flight_waits",
          static_cast<double>(cache_delta.single_flight_waits) / n,
          "count/launch");
    m.add("cache.lookup_ms", ms(span("cache.lookup")), "ms/launch");
    m.add("cache.publish_ms", ms(span("cache.publish")), "ms/launch");
    m.add("cache.capture_ms", ms(span("cache.capture")), "ms/launch");
    m.add("core.launch_ms", ms(t.launch_ns), "ms/launch");
    m.add("core.launch_from_template_ms", ms(span("launch_from_template")),
          "ms/launch");
    m.add("core.unattributed_ms", ms(t.unattributed_ns), "ms/launch");
    m.add("core.unattributed_frac",
          t.launch_ns > 0 ? t.unattributed_ns / t.launch_ns : 0.0, "frac");
    m.add("service.submit_us",
          traced.submits == 0
              ? 0.0
              : traced.submit_ns / 1e3 / static_cast<double>(traced.submits),
          "us");
    obs::HistogramSnapshot qw = reg.histogram("sevf_admission_queue_wait_ns");
    m.add("service.queue_wait_p50_ms", histogramPercentile(qw, 0.5) / 1e6,
          "ms");
    m.add("service.queue_wait_p90_ms", histogramPercentile(qw, 0.9) / 1e6,
          "ms");
    m.add("service.queue_wait_mean_ms",
          qw.count == 0 ? 0.0
                        : static_cast<double>(qw.sum) / 1e6 /
                              static_cast<double>(qw.count),
          "ms");
    m.add("service.peak_queue_depth", reg.gauge("sevf_admission_queue_depth"),
          "count");
    m.add("service.rejected",
          pipe_delta == nullptr
              ? 0.0
              : static_cast<double>(pipe_delta->shed +
                                    pipe_delta->rejected_quota),
          "count");
    m.add("bench.gen_lag_ms", percentile(traced.gen_lag_ms, 0.9), "ms");
    double p50_untraced = percentile(untraced.latency_ms, 0.5);
    m.add("bench.trace_overhead_frac",
          p50_untraced > 0
              ? percentile(traced.latency_ms, 0.5) / p50_untraced - 1.0
              : 0.0,
          "frac");
    m.add("bench.reconcile_error_frac", t.reconcileError(), "frac");
    m.add("bench.trace_events_dropped",
          reg.counter("sevf_trace_events_dropped_total"), "count");
    m.add("bench.traced_launches", n, "count");
    return m;
}

cache::TemplateCache::Stats
statsDelta(const cache::TemplateCache::Stats &a,
           const cache::TemplateCache::Stats &b)
{
    cache::TemplateCache::Stats d = b;
    d.hits -= a.hits;
    d.misses -= a.misses;
    d.inserts -= a.inserts;
    d.evictions -= a.evictions;
    d.single_flight_waits -= a.single_flight_waits;
    return d;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    std::unique_ptr<Workload> wl = makeWorkload(opt);

    // Traced runs also count set-up kernels (lz4_compress in synthesis).
    obs::setMetricsEnabled(opt.trace);
    wl->setUp();
    if (opt.corrupt_reference) {
        wl->corruptReference();
    }
    double setup_s = secondsBetween(g_process_start, Clock::now());
    std::printf("workload %s seed %llu: setup %.3f s (synthesis %.3f s)\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), setup_s,
                wl->setupInfo().synth_s);
    std::printf("fingerprint %s\n", fingerprintJson(opt).c_str());

    MetricList metrics;
    Window w;
    bool valid = true;
    if (!opt.trace) {
        obs::setMetricsEnabled(false);
        obs::setTracingEnabled(false);
        w = wl->measure(opt.seconds);
        valid = w.valid;
        metrics.add("setup_s", setup_s, "s");
        metrics.add("launch_p50_ms", percentile(w.latency_ms, 0.5), "ms");
        metrics.add("launch_p90_ms", percentile(w.latency_ms, 0.9), "ms");
        metrics.add("launches_per_s",
                    static_cast<double>(w.completed_in_window) / w.seconds,
                    "1/s");
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        obs::setMetricsEnabled(false);
        Window untraced = wl->measure(opt.seconds / 2);
        cache::TemplateCache::Stats cache_before =
            wl->platform().templateCache().stats();
        std::optional<core::AdmissionPipeline::Stats> pipe_before;
        if (wl->service() != nullptr) {
            pipe_before = wl->service()->pipeline().stats();
        }
        obs::TraceLog::instance().clear();
        obs::Registry::instance().reset();
        obs::setMetricsEnabled(true);
        obs::setTracingEnabled(true);
        w = wl->measure(opt.seconds / 2);
        obs::setTracingEnabled(false);
        obs::setMetricsEnabled(false);
        valid = untraced.valid && w.valid;
        cache::TemplateCache::Stats cache_delta = statsDelta(
            cache_before, wl->platform().templateCache().stats());
        std::optional<core::AdmissionPipeline::Stats> pipe_delta;
        if (pipe_before.has_value()) {
            pipe_delta = wl->service()->pipeline().stats();
            pipe_delta->shed -= pipe_before->shed;
            pipe_delta->rejected_quota -= pipe_before->rejected_quota;
        }
        perfbench::LayerTable table =
            perfbench::buildLayerTable(obs::TraceLog::instance().snapshot());
        printLayerTable(table,
                        static_cast<double>(std::max<u64>(1, w.attempted)));
        metrics = layerMetrics(*wl, untraced, w, table,
                               RegistryView(obs::Registry::instance().snapshot()),
                               cache_delta,
                               pipe_delta ? &*pipe_delta : nullptr);
        if (table.reconcileError() > 0.05) {
            std::printf("layer table does not reconcile within 5%%\n");
            valid = false;
        }
        w.merge(untraced);
    }

    double failed_frac =
        w.attempted == 0 ? 1.0
                         : static_cast<double>(w.failed) /
                               static_cast<double>(w.attempted);
    bool correct = w.attempted > 0 && w.failed == 0;
    std::size_t n = w.latency_ms.size();
    std::printf("timed: %llu launches attempted, %llu failed the gate "
                "(failed_frac %.6f), %zu latency samples over %.3f s; "
                "highest percentile with ten samples beyond: p%.1f\n",
                static_cast<unsigned long long>(w.attempted),
                static_cast<unsigned long long>(w.failed), failed_frac, n,
                w.seconds, 100.0 * supportedPercentile(n));
    if (!w.gen_lag_ms.empty()) {
        std::printf("generator lag: p50 %.3f ms, p90 %.3f ms, max %.3f ms; "
                    "in-system launches first/last tenth %.2f/%.2f (%s)\n",
                    percentile(w.gen_lag_ms, 0.5),
                    percentile(w.gen_lag_ms, 0.9),
                    percentile(w.gen_lag_ms, 1.0), w.backlog_start,
                    w.backlog_end, valid ? "no backlog" : "BACKLOG GREW");
    }
    metrics.print(opt.trace ? "per-layer metrics" : "end-to-end metrics");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s, \"samples\": %zu, \"valid\": %s, "
                "\"failed_frac\": %.17g, \"completed_in_window\": %llu, "
                "\"window_s\": %.17g, \"fingerprint\": %s}\n",
                correct && valid ? "true" : "false",
                static_cast<unsigned long long>(w.attempted),
                static_cast<unsigned long long>(w.failed),
                metrics.json().c_str(), n, valid ? "true" : "false",
                failed_frac,
                static_cast<unsigned long long>(w.completed_in_window),
                w.seconds, fingerprintJson(opt).c_str());
    std::fflush(stdout);
    return correct && valid ? 0 : 1;
}
