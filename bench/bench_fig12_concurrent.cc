/**
 * @file
 * Figure 12: average boot time of 1..50 concurrent cold starts. SEV
 * launches serialize on the single PSP core, so average boot time
 * grows linearly with concurrency (~1.8s at 50 guests for SEVeriFast);
 * non-SEV boots stay flat; QEMU/OVMF starts so slow that SEVeriFast at
 * 50 guests still beats one QEMU boot.
 *
 * A second, wall-clock section bursts eight identical launches through
 * the admission pipeline and fails unless exactly one of them builds
 * the template cold and the other seven replay it warm. Its record
 * lands in bench_data/bench_fig12_concurrent.json.
 */
#include "base/json.h"
#include "base/parallel.h"
#include "bench/common.h"
#include "core/admission.h"
#include "sim/des.h"
#include "stats/ascii_chart.h"
#include "workload/synthetic.h"

using namespace sevf;

namespace {

/** Mean completion over @p n concurrent jittered replays of a trace. */
double
meanConcurrentMs(const core::LaunchResult &nominal,
                 const sim::CostModel &model, int n, u64 seed)
{
    Rng rng(seed);
    std::vector<sim::BootTrace> traces;
    traces.reserve(n);
    for (int i = 0; i < n; ++i) {
        traces.push_back(sim::jitterTrace(nominal.trace, model, rng));
    }
    return sim::replayConcurrent(traces).meanCompletion().toMsF();
}

} // namespace

int
main()
{
    bench::ObsSession obs_session; // SEVF_TRACE_OUT/SEVF_METRICS_OUT
    bench::banner("Figure 12", "concurrent cold boots, 1..50 guests");
    core::Platform platform;
    const sim::CostModel &model = platform.cost();

    core::LaunchRequest request;
    request.kernel = workload::KernelConfig::kAws;
    request.attest = false; // boot time = VMM exec to init (S6.1)

    core::LaunchResult sevf_run = bench::runNominal(
        platform, core::StrategyKind::kSeveriFastBz, request);
    core::LaunchResult stock_run = bench::runNominal(
        platform, core::StrategyKind::kStockFirecracker, request);
    core::LaunchResult qemu_run = bench::runNominal(
        platform, core::StrategyKind::kQemuOvmfSev, request);

    stats::Table table({"concurrent VMs", "SEVeriFast (SEV)",
                        "stock FC (no SEV)", "QEMU/OVMF (SEV)"});
    double sevf_at[51] = {};
    for (int n : {1, 2, 5, 10, 20, 30, 40, 50}) {
        double sevf = meanConcurrentMs(sevf_run, model, n, 0x12a + n);
        double stock = meanConcurrentMs(stock_run, model, n, 0x12b + n);
        double qemu = meanConcurrentMs(qemu_run, model, n, 0x12c + n);
        sevf_at[n] = sevf;
        table.addRow({std::to_string(n), stats::fmtMs(sevf),
                      stats::fmtMs(stock), stats::fmtMs(qemu)});
    }
    table.print();

    std::string dat = "# n sevf_ms stock_ms qemu_ms\n";
    for (int n : {1, 2, 5, 10, 20, 30, 40, 50}) {
        char line[96];
        std::snprintf(line, sizeof(line), "%d %.2f %.2f %.2f\n", n,
                      sevf_at[n],
                      meanConcurrentMs(stock_run, model, n, 0x12b + n),
                      meanConcurrentMs(qemu_run, model, n, 0x12c + n));
        dat += line;
    }
    bench::writeDataFile("fig12_concurrent.dat", dat);

    stats::AsciiChart chart(64, 12);
    std::vector<std::pair<double, double>> sevf_pts, stock_pts;
    for (int n : {1, 2, 5, 10, 20, 30, 40, 50}) {
        sevf_pts.push_back({static_cast<double>(n), sevf_at[n]});
        stock_pts.push_back(
            {static_cast<double>(n),
             meanConcurrentMs(stock_run, model, n, 0x12b + n)});
    }
    chart.addSeries("SEVeriFast (SEV-SNP)", '#', sevf_pts);
    chart.addSeries("stock Firecracker", '.', stock_pts);
    std::printf("\n%s",
                chart.render("concurrent VMs", "mean boot time (ms)")
                    .c_str());

    double slope = (sevf_at[50] - sevf_at[10]) / 40.0;
    std::printf("SEVeriFast slope: %.1f ms per added guest "
                "(~= the total PSP launch-command time per guest, S6.2)\n",
                slope);
    std::printf("SEVeriFast @50 = %s (paper: ~1800ms); still below one "
                "QEMU boot (%s)\n",
                stats::fmtMs(sevf_at[50]).c_str(),
                stats::fmtMs(
                    meanConcurrentMs(qemu_run, model, 1, 0x200))
                    .c_str());
    bench::note("the PSP is a single core: every launch command "
                "serializes - the hardware bottleneck the paper flags "
                "for future work (S6.2)");

    // ---- Wall clock: admission pipeline + template cache ----------------
    //
    // The section above replays virtual time; this one measures the
    // real serving path. Eight identical launches: sequentially, cache
    // bypassed (what a burst cost before the admission pipeline) vs
    // submitted together through AdmissionPipeline with the template
    // cache on — the first build is deduplicated single-flight and the
    // seven followers boot warm.
    bench::banner("Figure 12 (wall clock)",
                  "8 identical launches: sequential cold vs pipelined");
    constexpr int kBurst = 8;
    core::LaunchRequest burst_request;
    burst_request.kernel = workload::KernelConfig::kAws;
    burst_request.attest = false;
    burst_request.scale = 0.25;

    crypto::Sha256Digest cold_measurement{};
    double t0 = bench::wallClock();
    {
        core::Platform cold_platform;
        core::LaunchRequest cold_request = burst_request;
        cold_request.use_template_cache = false;
        cold_request.host_threads = base::hardwareThreads();
        for (int i = 0; i < kBurst; ++i) {
            core::LaunchResult r = bench::runNominal(
                cold_platform, core::StrategyKind::kSeveriFastBz,
                cold_request);
            cold_measurement = r.measurement;
        }
    }
    double baseline_seconds = bench::wallClock() - t0;

    unsigned workers = 0;
    int warm_hits = 0;
    bool measurements_equal = true;
    t0 = bench::wallClock();
    {
        core::Platform pipe_platform;
        core::AdmissionPipeline pipeline(pipe_platform);
        pipeline.setTenantLimits("burst", {});
        workers = pipeline.workers();
        std::vector<std::shared_ptr<core::LaunchTicket>> tickets;
        tickets.reserve(kBurst);
        for (int i = 0; i < kBurst; ++i) {
            tickets.push_back(pipeline.submit(
                "burst", core::StrategyKind::kSeveriFastBz, burst_request));
        }
        for (std::shared_ptr<core::LaunchTicket> &ticket : tickets) {
            Result<core::LaunchResult> r = ticket->take();
            if (!r.isOk()) {
                fatal("pipelined launch failed: ",
                      r.status().toString());
            }
            warm_hits += r->cache_hit ? 1 : 0;
            measurements_equal =
                measurements_equal && r->measurement == cold_measurement;
        }
    }
    double pipeline_seconds = bench::wallClock() - t0;
    if (!measurements_equal) {
        fatal("pipelined launch measurement differs from cold");
    }
    // Single-flight: the leader builds the template once and every
    // follower replays it. Unlike the wall-clock speedup, this holds on
    // any core count, and the speedup depends on it.
    if (warm_hits != kBurst - 1) {
        fatal("expected one cold build and ", kBurst - 1,
              " warm followers, got ", warm_hits, " warm hits");
    }

    double aggregate_speedup =
        pipeline_seconds > 0 ? baseline_seconds / pipeline_seconds : 0.0;
    std::printf("  sequential cold: %6.1f ms  (%.1f launches/s)\n",
                baseline_seconds * 1e3, kBurst / baseline_seconds);
    std::printf("  pipelined+cache: %6.1f ms  (%.1f launches/s, "
                "%d workers, %d warm hits)\n",
                pipeline_seconds * 1e3, kBurst / pipeline_seconds, workers,
                warm_hits);
    std::printf("  aggregate throughput: %.1fx\n", aggregate_speedup);
    bench::note("the followers dedup into the leader's single-flight "
                "template build and replay it premeasured - the burst "
                "pays for one cold boot, not eight");

    base::JsonWriter json;
    json.beginObject();
    json.key("concurrent").value(u64{kBurst});
    json.key("workers").value(u64{workers});
    json.key("warm_hits").value(static_cast<u64>(warm_hits));
    json.key("baseline_seconds").value(baseline_seconds);
    json.key("pipeline_seconds").value(pipeline_seconds);
    json.key("baseline_launches_per_s").value(kBurst / baseline_seconds);
    json.key("pipeline_launches_per_s").value(kBurst / pipeline_seconds);
    json.key("aggregate_speedup").value(aggregate_speedup);
    json.key("measurements_equal").value(measurements_equal);
    json.endObject();
    bench::writeDataFile("bench_fig12_concurrent.json", json.take() + "\n");
    return 0;
}
