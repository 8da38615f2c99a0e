/**
 * @file
 * sevf_boot: boot one microVM with any strategy/kernel/mode and print
 * either the human-readable timeline or a JSON launch report. With
 * --trace-out/--metrics-out the launch runs with the observability
 * layer enabled and exports a Chrome trace-event file and a metrics
 * snapshot (docs/OBSERVABILITY.md).
 *
 * Run with --help for the full flag list (rendered from the same table
 * the parser uses, see sevf_boot_cli.h).
 */
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cache/template_cache.h"
#include "core/launch.h"
#include "core/report.h"
#include "fault/fault.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/des.h"
#include "stats/table.h"
#include "tools/sevf_boot_cli.h"

using namespace sevf;

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    Result<tools::BootOptions> parsed = tools::parseBootArgs(args);
    if (!parsed.isOk()) {
        std::fprintf(stderr, "%s\n\n%s", parsed.status().message().c_str(),
                     tools::usageText(argv[0]).c_str());
        return 2;
    }
    tools::BootOptions opts = parsed.take();
    if (opts.help) {
        std::printf("%s", tools::usageText(argv[0]).c_str());
        return 0;
    }

    if (!opts.metrics_out.empty()) {
        obs::setMetricsEnabled(true);
    }
    if (!opts.trace_out.empty()) {
        obs::setMetricsEnabled(true); // traces embed counter samples
        obs::setTracingEnabled(true);
    }

    if (!opts.fault_plan.empty()) {
        Result<fault::FaultPlan> plan =
            fault::FaultPlan::parse(opts.fault_plan);
        if (!plan.isOk()) {
            std::fprintf(stderr, "--fault-plan: %s\n",
                         plan.status().message().c_str());
            return 2;
        }
        fault::FaultInjector::instance().arm(plan.take());
    }

    core::Platform platform;
    platform.psp().setRetryPolicy(opts.retry);
    if (opts.cache_bytes != 0) {
        platform.templateCache().setCapacityBytes(opts.cache_bytes);
    }
    if (!opts.cache_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.cache_dir, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create --cache-dir %s: %s\n",
                         opts.cache_dir.c_str(), ec.message().c_str());
            return 1;
        }
        platform.templateCache().setDiskDir(opts.cache_dir);
    }
    Result<core::LaunchResult> result =
        core::makeStrategy(opts.strategy)->launch(platform, opts.request);
    if (!result.isOk()) {
        std::fprintf(stderr, "launch failed: %s\n",
                     result.status().toString().c_str());
        return 1;
    }

    if (obs::metricsEnabled() || obs::tracingEnabled()) {
        // Replay the trace through the shared-PSP scheduler: this is
        // what derives the PSP queue-depth counter track and the
        // sevf_psp_queue_depth / sevf_psp_wait_ns metrics.
        sim::replayConcurrent({result->trace});
    }
    if (!opts.trace_out.empty()) {
        Status st = obs::writeTraceFile(opts.trace_out);
        if (!st.isOk()) {
            std::fprintf(stderr, "trace export failed: %s\n",
                         st.toString().c_str());
            return 1;
        }
    }
    if (!opts.metrics_out.empty()) {
        Status st = obs::writeMetricsFile(opts.metrics_out);
        if (!st.isOk()) {
            std::fprintf(stderr, "metrics export failed: %s\n",
                         st.toString().c_str());
            return 1;
        }
    }

    if (opts.cache_stats) {
        // stderr so --json keeps a clean machine-readable stdout.
        cache::TemplateCache::Stats cs = platform.templateCache().stats();
        std::fprintf(stderr, "%s\n", tools::renderCacheStats(cs).c_str());
    }

    if (opts.json) {
        std::printf("%s\n", core::launchResultToJson(*result).c_str());
        return 0;
    }

    std::printf("%s\n", core::renderTimeline(result->trace).c_str());
    stats::Table phases({"phase", "time"});
    for (const std::string &phase : result->trace.phases()) {
        phases.addRow(
            {phase, stats::fmtMs(result->trace.phaseTotal(phase).toMsF())});
    }
    phases.print();
    std::printf("boot: %s  total: %s  attested: %s\n",
                result->bootTime().toString().c_str(),
                result->totalTime().toString().c_str(),
                result->attested ? "yes" : "no");
    return 0;
}
