/**
 * @file
 * End-to-end strategy tests at small workload scale: all five
 * strategies boot, produce sane traces/phases, attest where expected,
 * and preserve the paper's qualitative ordering.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "cache/template_cache.h"
#include "core/launch.h"
#include "core/report.h"
#include "workload/synthetic.h"

namespace sevf::core {
namespace {

constexpr double kScale = 1.0 / 32.0;

LaunchRequest
smallRequest(workload::KernelConfig kernel)
{
    LaunchRequest req;
    req.kernel = kernel;
    req.scale = kScale;
    return req;
}

class StrategyTest : public ::testing::TestWithParam<StrategyKind>
{
  protected:
    StrategyTest() : platform_(sim::CostParams::deterministic()) {}
    Platform platform_;
};

TEST_P(StrategyTest, LaunchesAwsKernel)
{
    std::unique_ptr<BootStrategy> strategy = makeStrategy(GetParam());
    Result<LaunchResult> result =
        strategy->launch(platform_, smallRequest(workload::KernelConfig::kAws));
    ASSERT_TRUE(result.isOk()) << result.status().toString();

    EXPECT_GT(result->totalTime(), sim::Duration::zero());
    EXPECT_GE(result->totalTime(), result->bootTime());
    // Every strategy ends in the Linux boot phase.
    EXPECT_GT(result->trace.phaseTotal(sim::phase::kLinuxBoot),
              sim::Duration::zero());

    if (GetParam() == StrategyKind::kStockFirecracker) {
        EXPECT_EQ(result->pre_encrypted_bytes, 0u);
        EXPECT_FALSE(result->attested);
    } else {
        EXPECT_GT(result->pre_encrypted_bytes, 0u);
        EXPECT_TRUE(result->attested);
        EXPECT_GT(result->provisioned_secret_bytes, 0u);
        EXPECT_GT(result->trace.phaseTotal(sim::phase::kPreEncryption),
                  sim::Duration::zero());
    }
}

TEST_P(StrategyTest, LupineSkipsAttestation)
{
    // Lupine has no networking (§6.1): attestation must be skipped.
    std::unique_ptr<BootStrategy> strategy = makeStrategy(GetParam());
    Result<LaunchResult> result = strategy->launch(
        platform_, smallRequest(workload::KernelConfig::kLupine));
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_FALSE(result->attested);
    EXPECT_EQ(result->trace.phaseTotal(sim::phase::kAttestation),
              sim::Duration::zero());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyTest,
    ::testing::Values(StrategyKind::kStockFirecracker,
                      StrategyKind::kQemuOvmfSev,
                      StrategyKind::kSevDirectBoot,
                      StrategyKind::kSeveriFastBz,
                      StrategyKind::kSeveriFastVmlinux),
    [](const auto &info) {
        std::string name = strategyName(info.param);
        for (char &c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

class OrderingTest : public ::testing::Test
{
  protected:
    OrderingTest() : platform_(sim::CostParams::deterministic()) {}

    sim::Duration
    bootTimeOf(StrategyKind kind, workload::KernelConfig kernel)
    {
        Result<LaunchResult> r =
            makeStrategy(kind)->launch(platform_, smallRequest(kernel));
        EXPECT_TRUE(r.isOk()) << r.status().toString();
        return r->bootTime();
    }

    Platform platform_;
};

TEST_F(OrderingTest, PaperShapeHolds)
{
    using K = workload::KernelConfig;
    sim::Duration stock = bootTimeOf(StrategyKind::kStockFirecracker, K::kAws);
    sim::Duration sevf = bootTimeOf(StrategyKind::kSeveriFastBz, K::kAws);
    sim::Duration qemu = bootTimeOf(StrategyKind::kQemuOvmfSev, K::kAws);
    sim::Duration direct = bootTimeOf(StrategyKind::kSevDirectBoot, K::kAws);

    // Stock < SEVeriFast < QEMU; SEV direct boot is also far slower
    // than SEVeriFast (pre-encrypting the kernel, §3.2).
    EXPECT_LT(stock, sevf);
    EXPECT_LT(sevf, qemu);
    EXPECT_LT(sevf, direct);
    // SEVeriFast cuts >= 80% off QEMU even at 1/32 artifact scale
    // (constants dominate; full scale is checked by calibration_test).
    EXPECT_LT(sevf.toSecF(), qemu.toSecF() * 0.20);
}

TEST_F(OrderingTest, BiggerKernelsBootSlower)
{
    using K = workload::KernelConfig;
    sim::Duration lupine = bootTimeOf(StrategyKind::kSeveriFastBz, K::kLupine);
    sim::Duration aws = bootTimeOf(StrategyKind::kSeveriFastBz, K::kAws);
    sim::Duration ubuntu = bootTimeOf(StrategyKind::kSeveriFastBz, K::kUbuntu);
    EXPECT_LT(lupine, aws);
    EXPECT_LT(aws, ubuntu);
}

TEST_F(OrderingTest, PreEncryptionTinyForSeveriFastHugeForDirect)
{
    using K = workload::KernelConfig;
    Result<LaunchResult> sevf = makeStrategy(StrategyKind::kSeveriFastBz)
                                    ->launch(platform_, smallRequest(K::kAws));
    Result<LaunchResult> direct =
        makeStrategy(StrategyKind::kSevDirectBoot)
            ->launch(platform_, smallRequest(K::kAws));
    ASSERT_TRUE(sevf.isOk());
    ASSERT_TRUE(direct.isOk());
    // SEVeriFast's root of trust is ~21 KiB; direct boot measures MiBs.
    EXPECT_LT(sevf->pre_encrypted_bytes, 32 * kKiB);
    EXPECT_GT(direct->pre_encrypted_bytes, 100 * kKiB);
    EXPECT_LT(sevf->trace.phaseTotal(sim::phase::kPreEncryption),
              direct->trace.phaseTotal(sim::phase::kPreEncryption));
}

TEST_F(OrderingTest, OutOfBandHashingSavesVmmTime)
{
    LaunchRequest with = smallRequest(workload::KernelConfig::kUbuntu);
    LaunchRequest without = with;
    without.out_of_band_hashing = false;
    Result<LaunchResult> a =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, with);
    Result<LaunchResult> b =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, without);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_LT(a->trace.phaseTotal(sim::phase::kVmm),
              b->trace.phaseTotal(sim::phase::kVmm));
}

TEST_F(OrderingTest, BloatedVerifierCostsMorePreEncryption)
{
    LaunchRequest small = smallRequest(workload::KernelConfig::kAws);
    LaunchRequest bloated = small;
    bloated.verifier_size = 256 * kKiB; // td-shim-style featureful shim
    Result<LaunchResult> a =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, small);
    Result<LaunchResult> b =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, bloated);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk()) << b.status().toString();
    EXPECT_LT(a->trace.phaseTotal(sim::phase::kPreEncryption),
              b->trace.phaseTotal(sim::phase::kPreEncryption));
}

TEST_F(OrderingTest, CompressedInitrdIsSlower)
{
    // Fig 5: compressing the initrd adds decompression without enough
    // verification savings.
    LaunchRequest raw = smallRequest(workload::KernelConfig::kAws);
    LaunchRequest packed = raw;
    packed.initrd_codec = compress::CodecKind::kLz4;
    Result<LaunchResult> a =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, raw);
    Result<LaunchResult> b =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, packed);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk()) << b.status().toString();
    sim::Duration a_guest =
        a->trace.phaseTotal(sim::phase::kBootVerification) +
        a->trace.phaseTotal(sim::phase::kBootstrapLoader);
    sim::Duration b_guest =
        b->trace.phaseTotal(sim::phase::kBootVerification) +
        b->trace.phaseTotal(sim::phase::kBootstrapLoader);
    EXPECT_LT(a_guest, b_guest);
}

TEST_F(OrderingTest, MeasurementIsReproducibleAcrossLaunches)
{
    LaunchRequest req = smallRequest(workload::KernelConfig::kAws);
    Result<LaunchResult> a =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    Result<LaunchResult> b =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    // Same components => same launch digest, despite per-VM keys/SPAs.
    EXPECT_EQ(a->measurement, b->measurement);
}


TEST_F(OrderingTest, SevGenerationsOrdered)
{
    // SEV < SEV-ES < SEV-SNP in boot cost; attestation works on all
    // generations with encrypted state measured where it exists.
    LaunchRequest req = smallRequest(workload::KernelConfig::kAws);
    req.sev_mode = memory::SevMode::kSev;
    Result<LaunchResult> sev =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    req.sev_mode = memory::SevMode::kSevEs;
    Result<LaunchResult> es =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    req.sev_mode = memory::SevMode::kSevSnp;
    Result<LaunchResult> snp =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    ASSERT_TRUE(sev.isOk()) << sev.status().toString();
    ASSERT_TRUE(es.isOk()) << es.status().toString();
    ASSERT_TRUE(snp.isOk());

    EXPECT_LT(sev->bootTime(), es->bootTime());
    EXPECT_LT(es->bootTime(), snp->bootTime());
    // All generations attest end to end.
    EXPECT_TRUE(sev->attested);
    EXPECT_TRUE(es->attested);
    EXPECT_TRUE(snp->attested);
    // The VMSA joins the measurement on ES/SNP, so digests differ from
    // base SEV even with identical components.
    EXPECT_EQ(es->measurement, snp->measurement);
    EXPECT_NE(sev->measurement, es->measurement);
    // Only SNP pays the pvalidate sweep.
    EXPECT_EQ(sev->verifier_stats.pages_validated, 0u);
    EXPECT_GT(snp->verifier_stats.pages_validated, 0u);
}

TEST_F(OrderingTest, VcpuCountChangesEsMeasurement)
{
    LaunchRequest req = smallRequest(workload::KernelConfig::kAws);
    req.sev_mode = memory::SevMode::kSevSnp;
    Result<LaunchResult> one =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    req.vm.vcpus = 2;
    Result<LaunchResult> two =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    ASSERT_TRUE(one.isOk());
    ASSERT_TRUE(two.isOk()) << two.status().toString();
    EXPECT_NE(one->measurement, two->measurement);
    EXPECT_TRUE(two->attested) << "owner must model 2 VMSAs";
}


TEST_F(OrderingTest, GuestKaslrWorksUnderSev)
{
    // §8 extension: in-monitor KASLR is broken by SEVeriFast, but the
    // in-guest bootstrap loader can randomize instead - invisible to
    // the host, no effect on the measurement.
    LaunchRequest req = smallRequest(workload::KernelConfig::kLupine);
    req.guest_kaslr = true;
    req.seed = 5;
    Result<LaunchResult> a =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    req.seed = 6;
    Result<LaunchResult> b =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    ASSERT_TRUE(b.isOk());
    // Different in-guest entropy, different layout...
    EXPECT_NE(a->kaslr_slide, b->kaslr_slide);
    // ...same measurement: the slide never leaves the guest.
    EXPECT_EQ(a->measurement, b->measurement);
}

TEST_F(OrderingTest, JsonReportWellFormedAndComplete)
{
    LaunchRequest req = smallRequest(workload::KernelConfig::kAws);
    Result<LaunchResult> run =
        makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform_, req);
    ASSERT_TRUE(run.isOk());
    std::string json = launchResultToJson(*run);
    // Structural smoke checks (full parse is out of scope here).
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"strategy\":\"severifast-bzimage\""),
              std::string::npos);
    EXPECT_NE(json.find("\"phases\""), std::string::npos);
    EXPECT_NE(json.find("\"pre_encryption\""), std::string::npos);
    EXPECT_NE(json.find("\"measurement\""), std::string::npos);
    EXPECT_NE(json.find("\"steps\""), std::string::npos);
    // Balanced braces/brackets.
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);

    // Compact form omits the steps array.
    std::string compact = launchResultToJson(*run, false);
    EXPECT_EQ(compact.find("\"steps\""), std::string::npos);
    EXPECT_LT(compact.size(), json.size());
}

TEST(StrategyNames, AllDistinct)
{
    EXPECT_STREQ(strategyName(StrategyKind::kSeveriFastBz),
                 "severifast-bzimage");
    EXPECT_STREQ(strategyName(StrategyKind::kStockFirecracker),
                 "stock-firecracker");
}

TEST(ReportTest, TimelineStampsEachStepWithItsEndTime)
{
    sim::BootTrace trace;
    trace.add(sim::StepKind::kCpu, sim::Duration::millis(1), sim::phase::kVmm,
              "vmm_start");
    trace.add(sim::StepKind::kPsp, sim::Duration::millis(4), sim::phase::kVmm,
              "enter_guest");
    EXPECT_EQ(renderTimeline(trace), "[     1.000ms] vmm_start\n"
                                     "[     5.000ms] enter_guest\n");
    EXPECT_EQ(renderTimeline(sim::BootTrace{}), "");
}

/** What a launch served from the cache must reproduce: its outcome,
 *  its counters and every step. */
void
expectSameLaunch(const LaunchResult &a, const LaunchResult &b)
{
    EXPECT_EQ(a.measurement, b.measurement);
    EXPECT_EQ(a.attested, b.attested);
    EXPECT_EQ(a.provisioned_secret_bytes, b.provisioned_secret_bytes);
    EXPECT_EQ(a.pre_encrypted_bytes, b.pre_encrypted_bytes);
    EXPECT_EQ(a.verifier_stats.pages_validated,
              b.verifier_stats.pages_validated);
    EXPECT_EQ(a.verifier_stats.bytes_hashed, b.verifier_stats.bytes_hashed);
    ASSERT_EQ(a.trace.steps().size(), b.trace.steps().size());
    for (std::size_t i = 0; i < a.trace.steps().size(); ++i) {
        const sim::Step &sa = a.trace.steps()[i];
        const sim::Step &sb = b.trace.steps()[i];
        EXPECT_EQ(sa.kind, sb.kind) << "step " << i;
        EXPECT_EQ(sa.duration.ns(), sb.duration.ns()) << "step " << i;
        EXPECT_EQ(sa.phase, sb.phase) << "step " << i;
        EXPECT_EQ(sa.label, sb.label) << "step " << i;
    }
}

TEST(ConcurrentLaunchTest, OneStrategyObjectServesConcurrentLaunches)
{
    // One object driven from several threads over two template keys (1
    // and 2 vCPUs), so misses, single-flight waits and hits interleave.
    // A strategy keeps no per-launch state: every launch must complete
    // (ctest's TIMEOUT on this binary turns a hang into a failure) and
    // equal a launch that bypasses the cache.
    constexpr int kThreads = 4;
    constexpr int kLaunchesPerThread = 4;
    Platform platform(sim::CostParams::deterministic());
    std::unique_ptr<BootStrategy> strategy =
        makeStrategy(StrategyKind::kSeveriFastBz);
    auto requestFor = [](u32 vcpus, bool use_cache) {
        LaunchRequest req = smallRequest(workload::KernelConfig::kAws);
        req.vm.vcpus = vcpus;
        req.use_template_cache = use_cache;
        return req;
    };

    std::vector<LaunchResult> references;
    for (u32 vcpus : {1u, 2u}) {
        Result<LaunchResult> ref =
            strategy->launch(platform, requestFor(vcpus, false));
        ASSERT_TRUE(ref.isOk()) << ref.status().toString();
        references.push_back(ref.take());
    }

    std::vector<std::vector<Result<LaunchResult>>> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kLaunchesPerThread; ++i) {
                u32 vcpus = 1 + static_cast<u32>((t + i) % 2);
                results[t].push_back(
                    strategy->launch(platform, requestFor(vcpus, true)));
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }

    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(results[t].size(), std::size_t{kLaunchesPerThread});
        for (int i = 0; i < kLaunchesPerThread; ++i) {
            SCOPED_TRACE("thread " + std::to_string(t) + " launch " +
                         std::to_string(i));
            const Result<LaunchResult> &r = results[t][i];
            ASSERT_TRUE(r.isOk()) << r.status().toString();
            expectSameLaunch(*r, references[(t + i) % 2]);
        }
    }
    EXPECT_GT(platform.templateCache().stats().hits, 0u);
}

/** A request at @p scale and @p vcpus, otherwise the small default. */
LaunchRequest
checkedRequest(double scale, u32 vcpus, bool use_cache)
{
    LaunchRequest req = smallRequest(workload::KernelConfig::kAws);
    req.scale = scale;
    req.vm.vcpus = vcpus;
    req.use_template_cache = use_cache;
    return req;
}

TEST(LaunchRequestCheckTest, ScaleAndVcpusOutsideTheirBoundsAreRefused)
{
    struct Case {
        double scale;
        u32 vcpus;
    };
    const Case refused[] = {
        {0.0, 1},
        {-kScale, 1},
        {std::nextafter(1.0, 2.0), 1},
        {2.0, 1},
        {std::nan(""), 1},
        {kScale, 0},
        {kScale, 255},
        {kScale, 256},
        {kScale, 4294967295u},
    };
    for (bool use_cache : {true, false}) {
        for (const Case &c : refused) {
            SCOPED_TRACE("scale " + std::to_string(c.scale) + " vcpus " +
                         std::to_string(c.vcpus) + " cache " +
                         std::to_string(use_cache));
            LaunchRequest req = checkedRequest(c.scale, c.vcpus, use_cache);
            EXPECT_EQ(checkLaunchRequest(req).code(),
                      ErrorCode::kInvalidArgument);

            // Refused before any VM, cache or PSP state exists.
            Platform platform(sim::CostParams::deterministic());
            Result<LaunchResult> r =
                makeStrategy(StrategyKind::kSeveriFastBz)->launch(platform,
                                                                  req);
            ASSERT_FALSE(r.isOk());
            EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
            EXPECT_TRUE(platform.psp().commandLog().records().empty());
            cache::TemplateCache::Stats stats =
                platform.templateCache().stats();
            EXPECT_EQ(stats.hits + stats.misses, 0u);
        }
    }
}

TEST(LaunchRequestCheckTest, ScaleAndVcpusAtTheirBoundsLaunch)
{
    // Scale 1.0 builds paper-sized artifacts; the check alone covers it.
    EXPECT_TRUE(checkLaunchRequest(checkedRequest(1.0, 1, true)).isOk());
    EXPECT_TRUE(
        checkLaunchRequest(checkedRequest(std::nextafter(0.0, 1.0), 1, true))
            .isOk());
    for (bool use_cache : {true, false}) {
        for (u32 vcpus : {1u, 254u}) {
            SCOPED_TRACE("vcpus " + std::to_string(vcpus) + " cache " +
                         std::to_string(use_cache));
            Platform platform(sim::CostParams::deterministic());
            Result<LaunchResult> r =
                makeStrategy(StrategyKind::kSeveriFastBz)
                    ->launch(platform, checkedRequest(kScale, vcpus, use_cache));
            ASSERT_TRUE(r.isOk()) << r.status().toString();
            EXPECT_TRUE(r->attested);
        }
    }
}

} // namespace
} // namespace sevf::core
