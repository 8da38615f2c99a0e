/**
 * @file
 * Workload generator tests: compressibility control, kernel artifact
 * synthesis (valid ELF + bzImage at target sizes/ratios), and the
 * attestation initrd.
 */
#include <gtest/gtest.h>

#include "compress/codec.h"
#include "image/bzimage.h"
#include "image/cpio.h"
#include "image/elf.h"
#include "workload/kernel_spec.h"
#include "workload/synthetic.h"

namespace sevf::workload {
namespace {

constexpr double kTestScale = 1.0 / 16.0;

const compress::Codec &
lz4()
{
    return compress::codecFor(compress::CodecKind::kLz4);
}

// ------------------------------------------------------------- specs

TEST(KernelSpecs, PaperSizes)
{
    // Fig 8 exactly.
    EXPECT_EQ(kernelSpec(KernelConfig::kLupine).vmlinux_size, 23 * kMiB);
    EXPECT_EQ(kernelSpec(KernelConfig::kAws).vmlinux_size, 43 * kMiB);
    EXPECT_EQ(kernelSpec(KernelConfig::kUbuntu).vmlinux_size, 61 * kMiB);
    EXPECT_EQ(kernelSpec(KernelConfig::kUbuntu).bzimage_target_size,
              15 * kMiB);
}

TEST(KernelSpecs, OrderedSmallMediumLarge)
{
    const auto &specs = allKernelSpecs();
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_LT(specs[0].vmlinux_size, specs[1].vmlinux_size);
    EXPECT_LT(specs[1].vmlinux_size, specs[2].vmlinux_size);
    EXPECT_LT(specs[0].base_linux_boot, specs[2].base_linux_boot);
}

TEST(KernelSpecs, LupineHasNoNetwork)
{
    EXPECT_FALSE(kernelSpec(KernelConfig::kLupine).has_network);
    EXPECT_TRUE(kernelSpec(KernelConfig::kAws).has_network);
}

// ----------------------------------------------------- compressibility

TEST(CompressibleBytes, SizeAndDeterminism)
{
    ByteVec a = compressibleBytes(100000, 0.3, 7);
    ByteVec b = compressibleBytes(100000, 0.3, 7);
    ByteVec c = compressibleBytes(100000, 0.3, 8);
    EXPECT_EQ(a.size(), 100000u);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(CompressibleBytes, FractionControlsRatio)
{
    u64 size = 512 * 1024;
    u64 low = lz4().compress(compressibleBytes(size, 0.1, 3)).size();
    u64 mid = lz4().compress(compressibleBytes(size, 0.5, 3)).size();
    u64 high = lz4().compress(compressibleBytes(size, 0.9, 3)).size();
    EXPECT_LT(low, mid);
    EXPECT_LT(mid, high);
    EXPECT_LT(low, size / 4);
    EXPECT_GT(high, size / 2);
}

TEST(CompressibleBytes, CalibrationHitsTarget)
{
    u64 size = 1 * kMiB;
    u64 target = 300 * 1024;
    double frac = calibrateRandomFraction(size, target, 11);
    u64 got = lz4().compress(compressibleBytes(size, frac, 11)).size();
    double rel = std::abs(static_cast<double>(got) -
                          static_cast<double>(target)) /
                 static_cast<double>(target);
    EXPECT_LT(rel, 0.08);
}

// ------------------------------------------------------------ kernels

class KernelArtifactsTest
    : public ::testing::TestWithParam<KernelConfig>
{
};

TEST_P(KernelArtifactsTest, ProducesValidLoadableImages)
{
    const KernelArtifacts &art = cachedKernelArtifacts(GetParam(), kTestScale);

    // vmlinux is a parseable x86-64 ELF with the expected entry.
    Result<image::ElfView> elf = image::parseElfView(art.vmlinux);
    ASSERT_TRUE(elf.isOk()) << elf.status().toString();
    EXPECT_EQ(elf->entry, art.entry);
    EXPECT_GE(elf->segments.size(), 3u);

    // bzImage parses, is LZ4, and round-trips back to the vmlinux.
    Result<image::BzImageInfo> info = image::parseBzImage(art.bzimage);
    ASSERT_TRUE(info.isOk()) << info.status().toString();
    EXPECT_EQ(info->codec, compress::CodecKind::kLz4);
    Result<ByteSpan> payload = image::bzImagePayload(art.bzimage);
    ASSERT_TRUE(payload.isOk());
    Result<ByteVec> back =
        compress::codecFor(info->codec).decompress(*payload);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, art.vmlinux);
}

TEST_P(KernelArtifactsTest, SizesNearPaperTargets)
{
    const KernelArtifacts &art = cachedKernelArtifacts(GetParam(), kTestScale);
    const KernelSpec &spec = kernelSpec(GetParam());

    double vm_target =
        static_cast<double>(spec.vmlinux_size) * kTestScale;
    double bz_target =
        static_cast<double>(spec.bzimage_target_size) * kTestScale;

    EXPECT_NEAR(static_cast<double>(art.vmlinux.size()), vm_target,
                vm_target * 0.05);
    EXPECT_NEAR(static_cast<double>(art.bzimage.size()), bz_target,
                bz_target * 0.15);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, KernelArtifactsTest,
                         ::testing::Values(KernelConfig::kLupine,
                                           KernelConfig::kAws,
                                           KernelConfig::kUbuntu),
                         [](const auto &info) {
                             return std::string(
                                 kernelConfigName(info.param));
                         });

TEST(KernelArtifacts, CachedReturnsSameObject)
{
    const KernelArtifacts &a =
        cachedKernelArtifacts(KernelConfig::kLupine, kTestScale);
    const KernelArtifacts &b =
        cachedKernelArtifacts(KernelConfig::kLupine, kTestScale);
    EXPECT_EQ(&a, &b);
}

// ------------------------------------------------------------- initrd

TEST(Initrd, IsValidCpioWithAttestationTooling)
{
    ByteVec initrd = syntheticInitrd(2 * kMiB, 42);
    Result<std::vector<image::CpioEntry>> entries = image::parseCpio(initrd);
    ASSERT_TRUE(entries.isOk()) << entries.status().toString();
    EXPECT_NE(image::findEntry(*entries, "init"), nullptr);
    EXPECT_NE(image::findEntry(*entries, "bin/attest-tool"), nullptr);
    EXPECT_NE(image::findEntry(*entries, "lib/modules/sev-guest.ko"),
              nullptr);
}

TEST(Initrd, HitsTargetSize)
{
    for (u64 target : {2 * kMiB, 4 * kMiB}) {
        ByteVec initrd = syntheticInitrd(target, 42);
        EXPECT_NEAR(static_cast<double>(initrd.size()),
                    static_cast<double>(target),
                    static_cast<double>(target) * 0.02);
    }
}

TEST(Initrd, BarelyCompressible)
{
    // §3.2: the attestation initrd LZ4s 14 MiB -> ~12 MiB (ratio ~0.86).
    ByteVec initrd = syntheticInitrd(4 * kMiB, 42);
    u64 compressed = lz4().compress(initrd).size();
    double ratio =
        static_cast<double>(compressed) / static_cast<double>(initrd.size());
    EXPECT_GT(ratio, 0.70);
    EXPECT_LT(ratio, 0.95);
}

TEST(Initrd, CachedDeterministic)
{
    const ByteVec &a = cachedInitrd(kTestScale);
    const ByteVec &b = cachedInitrd(kTestScale);
    EXPECT_EQ(&a, &b);
    EXPECT_NEAR(static_cast<double>(a.size()),
                static_cast<double>(kInitrdUncompressedSize) * kTestScale,
                static_cast<double>(kInitrdUncompressedSize) * kTestScale *
                    0.05);
}

// ----------------------------------------------------------- firmware

TEST(Firmware, BlobShapedLikeOvmf)
{
    ByteVec fw = firmwareBlob(1 * kMiB, 7);
    EXPECT_EQ(fw.size(), 1 * kMiB);
    std::string head(fw.begin(), fw.begin() + 4);
    EXPECT_EQ(head, "_FVH");
    // Deterministic.
    EXPECT_EQ(fw, firmwareBlob(1 * kMiB, 7));
    EXPECT_NE(fw, firmwareBlob(1 * kMiB, 8));
}

} // namespace
} // namespace sevf::workload
