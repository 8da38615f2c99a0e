/**
 * @file
 * Tests for the simulation core: virtual time, traces, cost model, and
 * the PSP-FIFO discrete-event replay that underpins Fig 12.
 */
#include <gtest/gtest.h>

#include "sim/cost_model.h"
#include "sim/des.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace sevf::sim {
namespace {

// ---------------------------------------------------------------- time

TEST(Duration, Arithmetic)
{
    Duration a = Duration::millis(3);
    Duration b = Duration::micros(500);
    EXPECT_EQ((a + b).ns(), 3500000);
    EXPECT_EQ((a - b).ns(), 2500000);
    EXPECT_LT(b, a);
    EXPECT_EQ(maxTime(a, b), a);
}

TEST(Duration, Conversions)
{
    EXPECT_DOUBLE_EQ(Duration::millis(250).toMsF(), 250.0);
    EXPECT_DOUBLE_EQ(Duration::seconds(2).toSecF(), 2.0);
    EXPECT_EQ(Duration::fromMsF(1.5).ns(), 1500000);
}

TEST(Duration, Formatting)
{
    EXPECT_EQ(Duration::nanos(12).toString(), "12ns");
    EXPECT_EQ(Duration::micros(15).toString(), "15.00us");
    EXPECT_EQ(Duration::millis(250).toString(), "250.00ms");
    EXPECT_EQ(Duration::seconds(3).toString(), "3.00s");
}

TEST(Duration, NegativeFormatting)
{
    EXPECT_EQ((Duration::millis(1) - Duration::millis(3)).toString(),
              "-2.00ms");
    EXPECT_EQ(Duration::nanos(-5).toString(), "-5ns");
}

TEST(JitterTrace, DeterministicPerSeedAndPreservesShape)
{
    CostModel model{CostParams::calibrated()};
    BootTrace nominal;
    nominal.add(StepKind::kCpu, Duration::millis(10), phase::kVmm, "a");
    nominal.add(StepKind::kPsp, Duration::millis(5), phase::kPreEncryption,
                "b");

    Rng r1(9), r2(9), r3(10);
    BootTrace j1 = jitterTrace(nominal, model, r1);
    BootTrace j2 = jitterTrace(nominal, model, r2);
    BootTrace j3 = jitterTrace(nominal, model, r3);
    EXPECT_EQ(j1.total(), j2.total());
    EXPECT_NE(j1.total(), j3.total());
    // Steps keep kind/phase/label; only durations move.
    ASSERT_EQ(j1.steps().size(), 2u);
    EXPECT_EQ(j1.steps()[1].kind, StepKind::kPsp);
    EXPECT_EQ(j1.steps()[1].phase, phase::kPreEncryption);
    EXPECT_EQ(j1.steps()[1].label, "b");
}

// ---------------------------------------------------------------- trace

TEST(BootTrace, TotalsAndPhases)
{
    BootTrace t;
    t.add(StepKind::kCpu, Duration::millis(10), phase::kVmm, "start");
    t.add(StepKind::kPsp, Duration::millis(5), phase::kPreEncryption, "upd");
    t.add(StepKind::kCpu, Duration::millis(20), phase::kLinuxBoot, "boot");
    t.add(StepKind::kCpu, Duration::millis(2), phase::kVmm, "more");

    EXPECT_EQ(t.total(), Duration::millis(37));
    EXPECT_EQ(t.phaseTotal(phase::kVmm), Duration::millis(12));
    EXPECT_EQ(t.phaseTotal(phase::kPreEncryption), Duration::millis(5));
    EXPECT_EQ(t.phaseTotal("nonexistent"), Duration::zero());

    std::vector<std::string> phases = t.phases();
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_EQ(phases[0], phase::kVmm);
    EXPECT_EQ(phases[1], phase::kPreEncryption);
}

// ------------------------------------------------------------ cost model

class CostModelTest : public ::testing::Test
{
  protected:
    CostModelTest() : model_(CostParams::deterministic()) {}
    CostModel model_;
};

TEST_F(CostModelTest, PreEncryptionIsLinearInSize)
{
    // Fig 4: pre-encryption time grows linearly with size.
    Duration d1 = model_.pspLaunchUpdate(1 * kMiB);
    Duration d2 = model_.pspLaunchUpdate(2 * kMiB);
    Duration d4 = model_.pspLaunchUpdate(4 * kMiB);
    double slope1 = (d2 - d1).toMsF();
    double slope2 = (d4 - d2).toMsF() / 2.0;
    EXPECT_NEAR(slope1, slope2, 1e-6);
    EXPECT_NEAR(slope1, model_.params().psp_launch_update_per_mib_ms, 1e-6);
}

TEST_F(CostModelTest, PreEncryptionCalibrationPoints)
{
    // §3.2: 23 MiB Lupine vmlinux => ~5.65 s.
    EXPECT_NEAR(model_.pspLaunchUpdate(23 * kMiB).toSecF(), 5.65, 0.15);
    // §3.2: 12 MiB compressed initrd => ~2.85 s.
    EXPECT_NEAR(model_.pspLaunchUpdate(12 * kMiB).toSecF(), 2.85, 0.15);
    // §3.2: 3.3 MiB Lupine bzImage => ~840 ms.
    EXPECT_NEAR(model_.pspLaunchUpdate(static_cast<u64>(3.3 * kMiB)).toMsF(),
                840.0, 40.0);
    // §3.1: 1 MiB OVMF => ~256.65 ms (within a few percent; the paper's
    // OVMF point also includes command framing we charge elsewhere).
    EXPECT_NEAR(model_.pspLaunchUpdate(1 * kMiB).toMsF(), 256.65, 15.0);
}

TEST_F(CostModelTest, PvalidateHugepagesVsBasePages)
{
    // §6.1: 256 MiB guest: >60 ms with 4K pages, <1 ms with hugepages.
    Duration base = model_.pvalidateSweep(256 * kMiB, /*hugepages=*/false);
    Duration huge = model_.pvalidateSweep(256 * kMiB, /*hugepages=*/true);
    EXPECT_GT(base.toMsF(), 55.0);
    EXPECT_LT(huge.toMsF(), 1.0);
}

TEST_F(CostModelTest, BootVerificationThroughput)
{
    // Fig 10 fit: copy+hash ~= 1.08 ms/MiB.
    Duration per_mib = model_.cpuCopy(kMiB) + model_.cpuSha256(kMiB);
    EXPECT_NEAR(per_mib.toMsF(), 1.08, 0.05);
}

TEST_F(CostModelTest, SnpLinuxBootMultiplier)
{
    Duration base = Duration::millis(52);
    Duration snp = model_.linuxBoot(base, /*snp=*/true);
    Duration plain = model_.linuxBoot(base, /*snp=*/false);
    EXPECT_EQ(plain, base);
    EXPECT_NEAR(snp.toMsF(),
                52.0 * model_.params().snp_linux_boot_multiplier +
                    model_.params().snp_guest_fixed_ms,
                1e-6);
}

TEST_F(CostModelTest, JitterDisabledIsIdentity)
{
    Rng rng(3);
    Duration d = Duration::millis(100);
    EXPECT_EQ(model_.jittered(d, &rng), d);
    CostModel with_jitter{CostParams::calibrated()};
    EXPECT_EQ(with_jitter.jittered(d, nullptr), d);
}

TEST_F(CostModelTest, JitterBoundedAndUnbiased)
{
    CostModel m{CostParams::calibrated()};
    Rng rng(4);
    Duration d = Duration::millis(100);
    double sum = 0.0;
    for (int i = 0; i < 5000; ++i) {
        Duration j = m.jittered(d, &rng);
        EXPECT_GE(j.toMsF(), 50.0);
        EXPECT_LE(j.toMsF(), 150.0);
        sum += j.toMsF();
    }
    EXPECT_NEAR(sum / 5000.0, 100.0, 1.0);
}

// ---------------------------------------------------------------- DES

BootTrace
makeTrace(i64 cpu_ms_before, i64 psp_ms, i64 cpu_ms_after)
{
    BootTrace t;
    if (cpu_ms_before > 0) {
        t.add(StepKind::kCpu, Duration::millis(cpu_ms_before), phase::kVmm,
              "cpu-pre");
    }
    if (psp_ms > 0) {
        t.add(StepKind::kPsp, Duration::millis(psp_ms),
              phase::kPreEncryption, "psp");
    }
    if (cpu_ms_after > 0) {
        t.add(StepKind::kCpu, Duration::millis(cpu_ms_after),
              phase::kLinuxBoot, "cpu-post");
    }
    return t;
}

TEST(Des, SingleVmIsSumOfSteps)
{
    ReplayResult r = replayConcurrent({makeTrace(10, 5, 20)});
    ASSERT_EQ(r.completion.size(), 1u);
    EXPECT_EQ(r.completion[0], Duration::millis(35));
    EXPECT_EQ(r.psp_wait[0], Duration::zero());
}

TEST(Des, CpuOnlyVmsDoNotQueue)
{
    // Non-SEV boots have no PSP steps: concurrency is free (Fig 12 flat).
    std::vector<BootTrace> traces(50, makeTrace(10, 0, 20));
    ReplayResult r = replayConcurrent(traces);
    for (Duration d : r.completion) {
        EXPECT_EQ(d, Duration::millis(30));
    }
}

TEST(Des, PspSerializesAcrossVms)
{
    // Two VMs hit the PSP at the same instant: the second waits.
    std::vector<BootTrace> traces(2, makeTrace(10, 5, 0));
    ReplayResult r = replayConcurrent(traces);
    std::vector<Duration> sorted = r.completion;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted[0], Duration::millis(15));
    EXPECT_EQ(sorted[1], Duration::millis(20));
}

TEST(Des, AverageGrowsLinearlyWithConcurrency)
{
    // The Fig 12 shape: mean completion is affine in N with slope
    // ~ psp_time/2.
    auto mean_for = [](int n) {
        std::vector<BootTrace> traces(n, makeTrace(10, 8, 30));
        return replayConcurrent(traces).meanCompletion().toMsF();
    };
    double m1 = mean_for(1);
    double m10 = mean_for(10);
    double m50 = mean_for(50);
    double slope_a = (m10 - m1) / 9.0;
    double slope_b = (m50 - m10) / 40.0;
    EXPECT_NEAR(slope_a, 4.0, 0.5); // psp 8 ms => slope 4 ms/VM
    EXPECT_NEAR(slope_b, 4.0, 0.5);
}

TEST(Des, FifoOrderRespectsArrival)
{
    // VM0 reaches the PSP at t=1, VM1 at t=0: VM1 must be served first.
    std::vector<BootTrace> traces;
    traces.push_back(makeTrace(1, 10, 0));
    traces.push_back(makeTrace(0, 10, 0));
    ReplayResult r = replayConcurrent(traces);
    EXPECT_EQ(r.completion[1], Duration::millis(10));
    EXPECT_EQ(r.completion[0], Duration::millis(20));
    EXPECT_EQ(r.psp_wait[0], Duration::millis(9));
}

TEST(Des, StaggeredStartsShiftCompletion)
{
    std::vector<BootTrace> traces(2, makeTrace(10, 0, 0));
    ReplayResult r =
        replayConcurrent(traces, Duration::millis(100).ns());
    EXPECT_EQ(r.completion[0], Duration::millis(10));
    EXPECT_EQ(r.completion[1], Duration::millis(110));
}

TEST(Des, MultiplePspVisitsPerVm)
{
    // Each VM visits the PSP twice (launch + report); serialization
    // applies to both visits.
    BootTrace t;
    t.add(StepKind::kPsp, Duration::millis(5), phase::kPreEncryption, "a");
    t.add(StepKind::kCpu, Duration::millis(10), phase::kLinuxBoot, "b");
    t.add(StepKind::kPsp, Duration::millis(5), phase::kAttestation, "c");
    std::vector<BootTrace> traces(3, t);
    ReplayResult r = replayConcurrent(traces);
    // Total PSP demand is 30 ms; the last completion cannot beat that.
    EXPECT_GE(r.maxCompletion(), Duration::millis(30));
}

TEST(Des, MeanAndMaxHelpers)
{
    std::vector<BootTrace> traces;
    traces.push_back(makeTrace(10, 0, 0));
    traces.push_back(makeTrace(30, 0, 0));
    ReplayResult r = replayConcurrent(traces);
    EXPECT_EQ(r.meanCompletion(), Duration::millis(20));
    EXPECT_EQ(r.maxCompletion(), Duration::millis(30));
}

} // namespace
} // namespace sevf::sim
