/**
 * @file
 * Guest-side tests: the bzImage bootstrap loader (real decompression in
 * encrypted memory) and the end-to-end attestation client.
 */
#include <gtest/gtest.h>

#include <set>

#include "attest/expected_measurement.h"
#include "attest/guest_owner.h"
#include "base/bytes.h"
#include "guest/attestation_client.h"
#include "guest/bootstrap_loader.h"
#include "image/bzimage.h"
#include "image/elf.h"
#include "psp/psp.h"
#include "workload/synthetic.h"

namespace sevf::guest {
namespace {

constexpr double kScale = 1.0 / 32.0;
constexpr Spa kSpaBase = 0x100000000ull;

/** Claim+validate a GPA range for private use. */
void
claim(memory::GuestMemory &mem, Gpa gpa, u64 len)
{
    for (Gpa p = alignDown(gpa, kPageSize); p < gpa + len; p += kPageSize) {
        ASSERT_TRUE(
            mem.rmp().rmpUpdate(mem.spaOf(p), mem.asid(), p, true).isOk());
        ASSERT_TRUE(
            mem.rmp().pvalidate(mem.spaOf(p), mem.asid(), p, true).isOk());
    }
}

class BootstrapLoaderTest : public ::testing::Test
{
  protected:
    BootstrapLoaderTest()
        : art_(workload::cachedKernelArtifacts(
              workload::KernelConfig::kLupine, kScale))
    {
    }

    /** runBootstrapLoader with a decode area of the image's init_size. */
    static Result<LoadedKernel>
    load(memory::GuestMemory &mem, Gpa gpa, ByteSpan bz, bool c_bit,
         const KaslrConfig &kaslr = {})
    {
        Result<image::BzImageInfo> info = image::parseBzImage(bz);
        ByteVec area(info.isOk() ? info->init_size : 0);
        return runBootstrapLoader(mem, gpa, bz.size(), c_bit, area, kaslr);
    }

    const workload::KernelArtifacts &art_;
};

TEST_F(BootstrapLoaderTest, PlainBzImageBoot)
{
    memory::GuestMemory mem(64 * kMiB, kSpaBase, 0);
    ASSERT_TRUE(mem.hostWrite(0x2000000, art_.bzimage).isOk());
    Result<LoadedKernel> loaded =
        load(mem, 0x2000000, art_.bzimage, false);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    EXPECT_EQ(loaded->entry, art_.entry);
    EXPECT_EQ(loaded->decompressed_bytes, art_.vmlinux.size());
    EXPECT_GT(loaded->loaded_bytes, 0u);

    // Segment data landed at its vaddr; BSS is zeroed.
    Result<image::ElfView> elf = image::parseElfView(art_.vmlinux);
    ASSERT_TRUE(elf.isOk());
    const image::ElfSegmentView &last = elf->segments.back();
    ASSERT_GT(last.memsz, last.data.size());
    Result<ByteVec> bss = mem.hostRead(last.vaddr + last.data.size(), 16);
    ASSERT_TRUE(bss.isOk());
    EXPECT_EQ(*bss, ByteVec(16, 0));
}

TEST_F(BootstrapLoaderTest, EncryptedBzImageBoot)
{
    Rng rng(8);
    crypto::Aes128Key k, t;
    rng.fill(k);
    rng.fill(t);
    memory::GuestMemory mem(96 * kMiB, kSpaBase, 3);
    mem.attachEncryption(std::make_unique<crypto::XexCipher>(k, t));
    claim(mem, 0, 96 * kMiB);

    ASSERT_TRUE(mem.guestWrite(0x3000000, art_.bzimage, true).isOk());
    Result<LoadedKernel> loaded =
        load(mem, 0x3000000, art_.bzimage, true);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    EXPECT_EQ(loaded->entry, art_.entry);

    // Kernel text is plaintext for the guest, ciphertext for the host.
    Result<image::ElfView> elf = image::parseElfView(art_.vmlinux);
    const image::ElfSegmentView &seg0 = elf->segments[0];
    EXPECT_EQ(*mem.guestRead(seg0.vaddr, 64, true),
              ByteVec(seg0.data.begin(), seg0.data.begin() + 64));
    EXPECT_NE(*mem.hostRead(seg0.vaddr, 64),
              ByteVec(seg0.data.begin(), seg0.data.begin() + 64));
}

TEST_F(BootstrapLoaderTest, CorruptImageRejected)
{
    memory::GuestMemory mem(64 * kMiB, kSpaBase, 0);
    ByteVec evil = art_.bzimage;
    evil[0x202] = 'X'; // break HdrS
    ASSERT_TRUE(mem.hostWrite(0x2000000, evil).isOk());
    EXPECT_FALSE(load(mem, 0x2000000, evil, false).isOk());
}

TEST_F(BootstrapLoaderTest, FrameDeclaringMoreThanInitSizeIsCorrupt)
{
    // The payload frame declares one byte more than the setup header's
    // init_size: far inside LZ4's 255x expansion bound, but more than
    // the decompression area the boot protocol reserves. The area is
    // handed over a page larger than init_size, so the bound must come
    // from the header, and nothing may be decoded into the area.
    Result<image::BzImageInfo> info = image::parseBzImage(art_.bzimage);
    ASSERT_TRUE(info.isOk());
    const u64 frame = info->pm_offset + info->payload_offset;
    const u64 declared = info->init_size + 1;
    ASSERT_LT(declared, u64{255} * info->payload_length);
    ByteVec evil = art_.bzimage;
    storeLe<u64>(evil.data() + frame + 8, declared); // frame size field

    memory::GuestMemory mem(64 * kMiB, kSpaBase, 0);
    ASSERT_TRUE(mem.hostWrite(0x2000000, evil).isOk());
    const ByteVec untouched(info->init_size + kPageSize, 0x5a);
    ByteVec area = untouched;
    Result<LoadedKernel> loaded =
        runBootstrapLoader(mem, 0x2000000, evil.size(), false, area);
    EXPECT_EQ(loaded.status().code(), ErrorCode::kCorrupted)
        << loaded.status().toString();
    EXPECT_EQ(area, untouched);
}

TEST_F(BootstrapLoaderTest, GuestKaslrSlidesKernel)
{
    memory::GuestMemory mem(128 * kMiB, kSpaBase, 0);
    ASSERT_TRUE(mem.hostWrite(0x4000000, art_.bzimage).isOk());

    KaslrConfig kaslr;
    kaslr.enabled = true;
    kaslr.seed = 0xabc;
    kaslr.max_slide = 16 * kMiB;
    Result<LoadedKernel> loaded = load(
        mem, 0x4000000, art_.bzimage, false, kaslr);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    EXPECT_EQ(loaded->kaslr_slide % kHugePageSize, 0u);
    EXPECT_LT(loaded->kaslr_slide, 16 * kMiB);
    EXPECT_EQ(loaded->entry, art_.entry + loaded->kaslr_slide);

    // The kernel text actually lives at the slid address.
    Result<image::ElfView> elf = image::parseElfView(art_.vmlinux);
    const image::ElfSegmentView &seg0 = elf->segments[0];
    EXPECT_EQ(*mem.hostRead(seg0.vaddr + loaded->kaslr_slide, 64),
              ByteVec(seg0.data.begin(), seg0.data.begin() + 64));
}

TEST_F(BootstrapLoaderTest, KaslrSeedsProduceDifferentSlides)
{
    // Not all seeds may differ (small slot count), but across a few
    // seeds at least two distinct slides must appear.
    memory::GuestMemory mem(128 * kMiB, kSpaBase, 0);
    ASSERT_TRUE(mem.hostWrite(0x4000000, art_.bzimage).isOk());
    std::set<u64> slides;
    for (u64 seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        KaslrConfig kaslr{true, seed, 32 * kMiB};
        Result<LoadedKernel> loaded = load(
            mem, 0x4000000, art_.bzimage, false, kaslr);
        ASSERT_TRUE(loaded.isOk());
        slides.insert(loaded->kaslr_slide);
    }
    EXPECT_GT(slides.size(), 2u);
}

TEST_F(BootstrapLoaderTest, KaslrDisabledMeansZeroSlide)
{
    memory::GuestMemory mem(64 * kMiB, kSpaBase, 0);
    ASSERT_TRUE(mem.hostWrite(0x2000000, art_.bzimage).isOk());
    Result<LoadedKernel> loaded = load(
        mem, 0x2000000, art_.bzimage, false, KaslrConfig{});
    ASSERT_TRUE(loaded.isOk());
    EXPECT_EQ(loaded->kaslr_slide, 0u);
    EXPECT_EQ(loaded->entry, art_.entry);
}

// ------------------------------------------------------------ attestation

TEST(AttestationClientTest, EndToEndProvisioning)
{
    psp::KeyServer ks;
    psp::Psp psp("CHIP-GUEST", ks, 0xabcd);
    memory::GuestMemory mem(4 * kMiB, kSpaBase, psp.allocateAsid());
    psp::GuestHandle handle = *psp.launchStart(mem, 0);

    // Measure one page so there is a non-trivial launch digest.
    ByteVec page(kPageSize, 0x5a);
    ASSERT_TRUE(mem.hostWrite(0, page).isOk());
    ASSERT_TRUE(psp.launchUpdateData(handle, mem, 0, kPageSize).isOk());
    ASSERT_TRUE(psp.launchFinish(handle).isOk());

    claim(mem, 0x2000, kPageSize);
    ByteVec secret = toBytes("root-disk-luks-key");
    attest::GuestOwner owner(ks, *psp.launchMeasure(handle), secret, 7);

    Result<AttestationOutcome> out =
        runAttestation(psp, handle, mem, 0x2000, owner, 0x11);
    ASSERT_TRUE(out.isOk()) << out.status().toString();
    EXPECT_EQ(out->secret_size, secret.size());
    // Secret sits in encrypted memory.
    EXPECT_EQ(*mem.guestRead(0x2000, secret.size(), true), secret);
    EXPECT_NE(*mem.hostRead(0x2000, secret.size()), secret);
}

TEST(AttestationClientTest, WrongExpectedMeasurementFails)
{
    psp::KeyServer ks;
    psp::Psp psp("CHIP-GUEST2", ks, 0xabce);
    memory::GuestMemory mem(4 * kMiB, kSpaBase, psp.allocateAsid());
    psp::GuestHandle handle = *psp.launchStart(mem, 0);
    ASSERT_TRUE(psp.launchFinish(handle).isOk());

    crypto::Sha256Digest wrong{};
    wrong.fill(0xee);
    attest::GuestOwner owner(ks, wrong, toBytes("s"), 7);
    claim(mem, 0x2000, kPageSize);
    Result<AttestationOutcome> out =
        runAttestation(psp, handle, mem, 0x2000, owner, 0x11);
    ASSERT_FALSE(out.isOk());
    EXPECT_EQ(out.status().code(), ErrorCode::kIntegrityFailure);
}

TEST(AttestationClientTest, ReportBeforeFinishFails)
{
    psp::KeyServer ks;
    psp::Psp psp("CHIP-GUEST3", ks, 0xabcf);
    memory::GuestMemory mem(4 * kMiB, kSpaBase, psp.allocateAsid());
    psp::GuestHandle handle = *psp.launchStart(mem, 0);
    attest::GuestOwner owner(ks, crypto::Sha256Digest{}, toBytes("s"), 7);
    Result<AttestationOutcome> out =
        runAttestation(psp, handle, mem, 0x2000, owner, 0x11);
    ASSERT_FALSE(out.isOk());
    EXPECT_EQ(out.status().code(), ErrorCode::kInvalidState);
}

} // namespace
} // namespace sevf::guest
