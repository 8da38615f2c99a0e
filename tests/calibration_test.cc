/**
 * @file
 * Calibration guard: full-scale (paper-sized) runs must land on the
 * paper's headline numbers within tolerance. If a CostParams change
 * breaks a figure, this suite fails. (This is the only deliberately
 * slow test - it builds the full 23/43/61 MiB artifacts.)
 */
#include <gtest/gtest.h>

#include "core/launch.h"
#include "sim/des.h"
#include "workload/synthetic.h"

namespace sevf::core {
namespace {

class CalibrationTest : public ::testing::Test
{
  protected:
    CalibrationTest() : platform_(sim::CostParams::deterministic()) {}

    LaunchResult
    run(StrategyKind kind, workload::KernelConfig kernel, bool attest = true)
    {
        LaunchRequest request;
        request.kernel = kernel;
        request.attest = attest;
        Result<LaunchResult> r =
            makeStrategy(kind)->launch(platform_, request);
        SEVF_CHECK(r.isOk());
        return r.take();
    }

    Platform platform_;
};

TEST_F(CalibrationTest, Fig9ReductionsInPaperBand)
{
    // Paper: 93.8% (Lupine), 88.5% (AWS), 86.1% (Ubuntu); we accept
    // +-2.5 percentage points.
    const struct {
        workload::KernelConfig config;
        double paper;
    } rows[] = {
        {workload::KernelConfig::kLupine, 0.938},
        {workload::KernelConfig::kAws, 0.885},
        {workload::KernelConfig::kUbuntu, 0.861},
    };
    for (const auto &row : rows) {
        double sevf =
            run(StrategyKind::kSeveriFastBz, row.config).totalTime().toSecF();
        double qemu =
            run(StrategyKind::kQemuOvmfSev, row.config).totalTime().toSecF();
        double reduction = 1.0 - sevf / qemu;
        EXPECT_NEAR(reduction, row.paper, 0.025)
            << workload::kernelConfigName(row.config);
    }
}

TEST_F(CalibrationTest, Fig10PreEncryption)
{
    // SEVeriFast pre-encryption ~8.1-8.2ms; QEMU ~287.8ms.
    LaunchResult sevf = run(StrategyKind::kSeveriFastBz,
                            workload::KernelConfig::kAws, false);
    LaunchResult qemu = run(StrategyKind::kQemuOvmfSev,
                            workload::KernelConfig::kAws, false);
    EXPECT_NEAR(sevf.trace.phaseTotal(sim::phase::kPreEncryption).toMsF(),
                8.2, 1.0);
    EXPECT_NEAR(qemu.trace.phaseTotal(sim::phase::kPreEncryption).toMsF(),
                287.8, 15.0);
}

TEST_F(CalibrationTest, Fig10BootVerification)
{
    // SEVeriFast boot verification: 20.36 / 24.73 / 32.96 ms.
    const struct {
        workload::KernelConfig config;
        double paper_ms;
    } rows[] = {
        {workload::KernelConfig::kLupine, 20.36},
        {workload::KernelConfig::kAws, 24.73},
        {workload::KernelConfig::kUbuntu, 32.96},
    };
    for (const auto &row : rows) {
        LaunchResult r = run(StrategyKind::kSeveriFastBz, row.config, false);
        EXPECT_NEAR(
            r.trace.phaseTotal(sim::phase::kBootVerification).toMsF(),
            row.paper_ms, 2.5)
            << workload::kernelConfigName(row.config);
    }
}

TEST_F(CalibrationTest, Fig3OvmfRuntime)
{
    LaunchResult qemu = run(StrategyKind::kQemuOvmfSev,
                            workload::KernelConfig::kAws, false);
    double fw = qemu.trace.phaseTotal(sim::phase::kFirmware).toMsF() +
                qemu.trace.phaseTotal(sim::phase::kBootVerification).toMsF();
    // "OVMF's runtime is over 3 seconds" / Fig 10: 3168-3240ms.
    EXPECT_GT(fw, 3000.0);
    EXPECT_LT(fw, 3400.0);
}

TEST_F(CalibrationTest, Section32DirectBootStrawman)
{
    // Pre-encrypting the Lupine vmlinux ~5.65s; the bzImage ~840ms.
    LaunchRequest vml;
    vml.kernel = workload::KernelConfig::kLupine;
    vml.attest = false;
    vml.kernel_codec = compress::CodecKind::kNone; // direct vmlinux
    Result<LaunchResult> direct =
        makeStrategy(StrategyKind::kSevDirectBoot)->launch(platform_, vml);
    ASSERT_TRUE(direct.isOk());
    // The paper's 5.65s is the kernel alone (the initrd adds its own
    // 2.85s-class cost on top).
    double kernel_pre_s = 0;
    for (const sim::Step &s : direct->trace.steps()) {
        if (s.label.rfind("launch_update:kernel_seg", 0) == 0) {
            kernel_pre_s += s.duration.toSecF();
        }
    }
    EXPECT_NEAR(kernel_pre_s, 5.65, 0.4);

    LaunchRequest bz = vml;
    bz.kernel_codec = compress::CodecKind::kLz4;
    Result<LaunchResult> direct_bz =
        makeStrategy(StrategyKind::kSevDirectBoot)->launch(platform_, bz);
    ASSERT_TRUE(direct_bz.isOk());
    // bzImage + structs only (initrd uncompressed here adds its own
    // share; compare the kernel portion via the step labels).
    double bz_kernel_ms = 0;
    for (const sim::Step &s : direct_bz->trace.steps()) {
        if (s.label == "launch_update:bzimage") {
            bz_kernel_ms = s.duration.toMsF();
        }
    }
    EXPECT_NEAR(bz_kernel_ms, 840.0, 60.0);
}

TEST_F(CalibrationTest, Fig11StockOverheadFactor)
{
    double stock = run(StrategyKind::kStockFirecracker,
                       workload::KernelConfig::kAws, false)
                       .bootTime()
                       .toSecF();
    double sevf = run(StrategyKind::kSeveriFastBz,
                      workload::KernelConfig::kAws, false)
                      .bootTime()
                      .toSecF();
    // Paper: "about 4x"; we accept 3.5-5.5x.
    EXPECT_GT(sevf / stock, 3.5);
    EXPECT_LT(sevf / stock, 5.5);
}

TEST_F(CalibrationTest, Fig12ConcurrencyShape)
{
    LaunchResult sevf = run(StrategyKind::kSeveriFastBz,
                            workload::KernelConfig::kAws, false);
    LaunchResult stock = run(StrategyKind::kStockFirecracker,
                             workload::KernelConfig::kAws, false);

    auto mean_at = [](const LaunchResult &r, int n) {
        std::vector<sim::BootTrace> traces(n, r.trace);
        return sim::replayConcurrent(traces).meanCompletion().toMsF();
    };

    // SEV: linear growth, ~1800ms at 50 (we accept 1500-2100).
    double sev50 = mean_at(sevf, 50);
    EXPECT_GT(sev50, 1500.0);
    EXPECT_LT(sev50, 2100.0);
    // Linearity: slope stable between segments.
    double slope_a = (mean_at(sevf, 20) - mean_at(sevf, 10)) / 10.0;
    double slope_b = (mean_at(sevf, 50) - mean_at(sevf, 40)) / 10.0;
    EXPECT_NEAR(slope_a, slope_b, slope_a * 0.15);

    // Non-SEV: flat.
    EXPECT_NEAR(mean_at(stock, 50), mean_at(stock, 1), 1.0);
}

TEST_F(CalibrationTest, AttestationAbout200ms)
{
    LaunchResult r =
        run(StrategyKind::kSeveriFastBz, workload::KernelConfig::kAws);
    EXPECT_NEAR(r.trace.phaseTotal(sim::phase::kAttestation).toMsF(), 200.0,
                20.0);
}

TEST_F(CalibrationTest, PvalidateHugepageClaim)
{
    // §6.1: hugepages take pvalidate from >60ms to <1ms for 256MiB.
    const sim::CostModel &cost = platform_.cost();
    EXPECT_GT(cost.pvalidateSweep(256 * kMiB, false).toMsF(), 55.0);
    EXPECT_LT(cost.pvalidateSweep(256 * kMiB, true).toMsF(), 1.0);
}

} // namespace
} // namespace sevf::core
