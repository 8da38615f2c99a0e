/**
 * @file
 * Boot-verifier tests: the full measured-direct-boot flow on real
 * artifacts (bzImage and streaming-vmlinux paths), plus the §2.6 host
 * attacks, all at small workload scale.
 */
#include <gtest/gtest.h>

#include "base/bytes.h"
#include "guest/bootstrap_loader.h"
#include "image/bzimage.h"
#include "image/elf.h"
#include "psp/psp.h"
#include "verifier/boot_verifier.h"
#include "verifier/verifier_binary.h"
#include "vmm/fw_cfg.h"
#include "vmm/layout.h"
#include "vmm/microvm.h"
#include "workload/synthetic.h"

namespace sevf::verifier {
namespace {

namespace layout = vmm::layout;
constexpr double kScale = 1.0 / 32.0;

/** Full host-side SEV launch up to entering the guest. */
class SevLaunchFixture : public ::testing::Test
{
  protected:
    SevLaunchFixture()
        : psp_("CHIP-VERIF", ks_, 0xd00d),
          art_(workload::cachedKernelArtifacts(
              workload::KernelConfig::kLupine, kScale)),
          initrd_(workload::cachedInitrd(kScale))
    {
    }

    /**
     * Run the host-side launch flow with @p kernel_image and hashes
     * computed over @p hashed_kernel (normally the same bytes; tests
     * pass different ones to model attacks).
     */
    void
    launch(ByteSpan kernel_image, ByteSpan hashed_kernel,
           ByteSpan hashed_initrd, KernelImageKind kind)
    {
        vmm::VmConfig config;
        config.memory_size = 256 * kMiB;
        vm_ = std::make_unique<vmm::MicroVm>(config, 0x100000000ull,
                                             psp_.allocateAsid());

        // Stage plaintext components (Fig 2 step 3).
        if (kind == KernelImageKind::kBzImage) {
            staged_ = *vm_->stageMeasuredComponents(kernel_image, initrd_);
        } else {
            vmm::FwCfg fw(vm_->memory(), layout::kKernelStagingGpa,
                          64 * kMiB);
            ASSERT_TRUE(stageVmlinuxViaFwCfg(fw, kernel_image).isOk());
            ASSERT_TRUE(vm_->memory()
                            .hostWrite(layout::kInitrdStagingGpa, initrd_)
                            .isOk());
            staged_.kernel_gpa = layout::kKernelStagingGpa;
            staged_.kernel_size = kernel_image.size();
            staged_.initrd_gpa = layout::kInitrdStagingGpa;
            staged_.initrd_size = initrd_.size();
        }

        // Out-of-band hashes (§4.3).
        if (kind == KernelImageKind::kBzImage) {
            hashes_ = BootHashes::compute(hashed_kernel, hashed_initrd,
                                          std::nullopt);
        } else {
            hashes_.kernel = *vmlinuxStreamDigest(hashed_kernel);
            hashes_.kernel_size = hashed_kernel.size();
            hashes_.initrd = crypto::Sha256::digest(hashed_initrd);
            hashes_.initrd_size = hashed_initrd.size();
        }

        // Boot structures + pre-encryption plan.
        vmm::BootStructs structs =
            *vm_->stageBootStructs(layout::kInitrdPrivateGpa,
                                   initrd_.size(), 0);
        plan_ = *vm_->buildPreEncryptionPlan(verifierBinary(), hashes_,
                                             structs);

        // PSP launch flow.
        handle_ = *psp_.launchStart(vm_->memory(), config.sev_policy);
        for (const attest::PreEncryptedRegion &r : plan_) {
            ASSERT_TRUE(psp_
                            .launchUpdateData(handle_, vm_->memory(), r.gpa,
                                              r.bytes.size())
                            .isOk())
                << r.name;
        }
        ASSERT_TRUE(psp_.launchFinish(handle_).isOk());

        inputs_ = VerifierInputs{};
        inputs_.kernel_staging = staged_.kernel_gpa;
        inputs_.initrd_staging = staged_.initrd_gpa;
        inputs_.hash_table_gpa = layout::kHashTableGpa;
        inputs_.kernel_private = layout::kBzImagePrivateGpa;
        inputs_.initrd_private = layout::kInitrdPrivateGpa;
        inputs_.page_table_root = layout::kPageTableGpa;
        inputs_.kernel_kind = kind;
        inputs_.keep_shared = {
            {staged_.kernel_gpa, 80 * kMiB},
            {staged_.initrd_gpa, 32 * kMiB},
        };
    }

    psp::KeyServer ks_;
    psp::Psp psp_;
    const workload::KernelArtifacts &art_;
    const ByteVec &initrd_;
    std::unique_ptr<vmm::MicroVm> vm_;
    vmm::StagedComponents staged_;
    BootHashes hashes_;
    std::vector<attest::PreEncryptedRegion> plan_;
    psp::GuestHandle handle_ = 0;
    VerifierInputs inputs_;
};

TEST_F(SevLaunchFixture, BzImagePathVerifiesAndLoads)
{
    launch(art_.bzimage, art_.bzimage, initrd_, KernelImageKind::kBzImage);
    BootVerifier verifier(vm_->memory());
    Result<VerifiedBoot> boot = verifier.run(inputs_);
    ASSERT_TRUE(boot.isOk()) << boot.status().toString();
    EXPECT_EQ(boot->kernel_gpa, layout::kBzImagePrivateGpa);
    EXPECT_EQ(boot->kernel_size, art_.bzimage.size());
    // ~256 MiB of pages minus the shared staging windows.
    EXPECT_GT(boot->stats.pages_validated, 30000u);
    EXPECT_EQ(boot->stats.bytes_copied,
              art_.bzimage.size() + initrd_.size());

    // The protected bzImage is intact in encrypted memory...
    EXPECT_EQ(*vm_->memory().guestRead(boot->kernel_gpa, 64, true),
              ByteVec(art_.bzimage.begin(), art_.bzimage.begin() + 64));
    // ...and is ciphertext from the host's view.
    EXPECT_NE(*vm_->memory().hostRead(boot->kernel_gpa, 64),
              ByteVec(art_.bzimage.begin(), art_.bzimage.begin() + 64));

    // Bootstrap loader decompresses and places the real kernel.
    Result<image::BzImageInfo> info = image::parseBzImage(art_.bzimage);
    ASSERT_TRUE(info.isOk());
    ByteVec decode_area(info->init_size);
    Result<guest::LoadedKernel> loaded = guest::runBootstrapLoader(
        vm_->memory(), boot->kernel_gpa, boot->kernel_size, true,
        decode_area);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    EXPECT_EQ(loaded->entry, art_.entry);
    EXPECT_EQ(loaded->codec, compress::CodecKind::kLz4);
    EXPECT_EQ(loaded->decompressed_bytes, art_.vmlinux.size());

    // Kernel text is where it should run, decryptable only as guest.
    Result<image::ElfView> elf = image::parseElfView(art_.vmlinux);
    ASSERT_TRUE(elf.isOk());
    const image::ElfSegmentView &seg0 = elf->segments[0];
    EXPECT_EQ(*vm_->memory().guestRead(seg0.vaddr, 128, true),
              ByteVec(seg0.data.begin(), seg0.data.begin() + 128));
}

TEST_F(SevLaunchFixture, VmlinuxStreamingPathLoadsDirectly)
{
    launch(art_.vmlinux, art_.vmlinux, initrd_, KernelImageKind::kVmlinux);
    BootVerifier verifier(vm_->memory());
    Result<VerifiedBoot> boot = verifier.run(inputs_);
    ASSERT_TRUE(boot.isOk()) << boot.status().toString();
    EXPECT_EQ(boot->kernel_entry, art_.entry);

    // Segments already sit at their run addresses - no bootstrap loader.
    Result<image::ElfView> elf = image::parseElfView(art_.vmlinux);
    ASSERT_TRUE(elf.isOk());
    for (const image::ElfSegmentView &seg : elf->segments) {
        ByteVec head(seg.data.begin(),
                     seg.data.begin() +
                         std::min<std::size_t>(64, seg.data.size()));
        EXPECT_EQ(*vm_->memory().guestRead(seg.vaddr, head.size(), true),
                  head);
    }
    // Streaming copies strictly less than bzImage-path's copy of the
    // whole file plus later decompressed writes: assert it skipped the
    // ELF padding at least.
    EXPECT_LE(boot->stats.bytes_hashed,
              art_.vmlinux.size() + initrd_.size());
}

TEST_F(SevLaunchFixture, MeasurementMatchesExpectedTool)
{
    launch(art_.bzimage, art_.bzimage, initrd_, KernelImageKind::kBzImage);
    EXPECT_EQ(*psp_.launchMeasure(handle_),
              attest::expectedMeasurement(plan_));
}

TEST_F(SevLaunchFixture, Attack_SwappedKernelDetected)
{
    // Host stages a different kernel than the one hashed (§2.6 #1).
    ByteVec evil = art_.bzimage;
    evil[evil.size() / 2] ^= 0xff;
    launch(evil, art_.bzimage, initrd_, KernelImageKind::kBzImage);
    BootVerifier verifier(vm_->memory());
    Result<VerifiedBoot> boot = verifier.run(inputs_);
    ASSERT_FALSE(boot.isOk());
    EXPECT_EQ(boot.status().code(), ErrorCode::kIntegrityFailure);
}

TEST_F(SevLaunchFixture, Attack_SwappedInitrdDetected)
{
    ByteVec evil = initrd_;
    evil[100] ^= 0xff;
    launch(art_.bzimage, art_.bzimage, initrd_, KernelImageKind::kBzImage);
    // Re-stage the tampered initrd after hashing.
    ASSERT_TRUE(
        vm_->memory().hostWrite(layout::kInitrdStagingGpa, evil).isOk());
    BootVerifier verifier(vm_->memory());
    Result<VerifiedBoot> boot = verifier.run(inputs_);
    ASSERT_FALSE(boot.isOk());
    EXPECT_EQ(boot.status().code(), ErrorCode::kIntegrityFailure);
}

TEST_F(SevLaunchFixture, Attack_HashPageNotPreEncrypted)
{
    // Host "forgets" to measure the hash page: the verifier's C-bit
    // read faults (#VC) instead of trusting plaintext hashes.
    launch(art_.bzimage, art_.bzimage, initrd_, KernelImageKind::kBzImage);
    // Fresh VM where the hash page is staged but never LAUNCH_UPDATEd.
    vmm::VmConfig config;
    vmm::MicroVm vm2(config, 0x200000000ull, psp_.allocateAsid());
    ASSERT_TRUE(psp_.launchStart(vm2.memory(), 0).isOk());
    ASSERT_TRUE(
        vm2.memory().hostWrite(layout::kHashTableGpa, hashes_.toPage())
            .isOk());
    VerifierInputs inputs = inputs_;
    inputs.keep_shared.push_back({layout::kHashTableGpa, kPageSize});
    BootVerifier verifier(vm2.memory());
    Result<VerifiedBoot> boot = verifier.run(inputs);
    ASSERT_FALSE(boot.isOk());
    EXPECT_EQ(boot.status().code(), ErrorCode::kAccessDenied);
}

TEST_F(SevLaunchFixture, HostCannotTamperPreEncryptedState)
{
    launch(art_.bzimage, art_.bzimage, initrd_, KernelImageKind::kBzImage);
    // After LAUNCH_UPDATE_DATA the RMP locks the hash page.
    Status write = vm_->memory().hostWrite(layout::kHashTableGpa,
                                           ByteVec(kPageSize, 0));
    EXPECT_EQ(write.code(), ErrorCode::kAccessDenied);
}

// ------------------------------------------------------------ hash table

TEST(BootHashesPage, RoundTrip)
{
    BootHashes h = BootHashes::compute(toBytes("kernel"), toBytes("initrd"),
                                       asBytes("cmdline"));
    ByteVec page = h.toPage();
    ASSERT_EQ(page.size(), kPageSize);
    Result<BootHashes> back = BootHashes::fromPage(page);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back->kernel, h.kernel);
    EXPECT_EQ(back->initrd, h.initrd);
    EXPECT_EQ(back->kernel_size, 6u);
    ASSERT_TRUE(back->cmdline.has_value());
    EXPECT_EQ(*back->cmdline, *h.cmdline);
}

TEST(BootHashesPage, OptionalCmdline)
{
    BootHashes h =
        BootHashes::compute(toBytes("k"), toBytes("i"), std::nullopt);
    Result<BootHashes> back = BootHashes::fromPage(h.toPage());
    ASSERT_TRUE(back.isOk());
    EXPECT_FALSE(back->cmdline.has_value());
}

TEST(BootHashesPage, RejectsBadMagic)
{
    BootHashes h =
        BootHashes::compute(toBytes("k"), toBytes("i"), std::nullopt);
    ByteVec page = h.toPage();
    page[0] ^= 1;
    EXPECT_FALSE(BootHashes::fromPage(page).isOk());
}

TEST(BootHashesPage, RejectsTruncatedPage)
{
    BootHashes h =
        BootHashes::compute(toBytes("k"), toBytes("i"), std::nullopt);
    ByteVec page = h.toPage();
    // Cut inside the digest block: magic/flags/sizes parse, digests
    // don't.
    ByteVec cut(page.begin(), page.begin() + 40);
    EXPECT_FALSE(BootHashes::fromPage(cut).isOk());
    // Cut inside the size fields.
    ByteVec tiny(page.begin(), page.begin() + 10);
    EXPECT_FALSE(BootHashes::fromPage(tiny).isOk());
    // Empty page: not even the magic.
    EXPECT_FALSE(BootHashes::fromPage(ByteSpan()).isOk());
}

// --------------------------------------------------------------- binary

TEST(VerifierBinary, ThirteenKiBAndDeterministic)
{
    const ByteVec &bin = verifierBinary();
    EXPECT_EQ(bin.size(), 13 * kKiB);
    EXPECT_EQ(&bin, &verifierBinary());
    std::string banner(bin.begin(), bin.begin() + 18);
    EXPECT_EQ(banner, "SEVF-BOOT-VERIFIER");
    EXPECT_EQ(bloatedVerifierBinary(64 * kKiB).size(), 64 * kKiB);
}

TEST(VmlinuxStreamDigestTest, RejectsCorruptElf)
{
    const workload::KernelArtifacts &art = workload::cachedKernelArtifacts(
        workload::KernelConfig::kLupine, kScale);
    // An absurd e_phnum pushes the phdr table past the end of the file.
    ByteVec bad = art.vmlinux;
    storeLe<u16>(bad.data() + 56, 0xffff);
    EXPECT_FALSE(vmlinuxStreamDigest(bad).isOk());
    // Truncating mid-segment must also fail, not hash short data.
    ByteVec cut(art.vmlinux.begin(),
                art.vmlinux.begin() + static_cast<long>(image::kEhdrSize) + 8);
    EXPECT_FALSE(vmlinuxStreamDigest(cut).isOk());
}

TEST(VmlinuxStreamDigestTest, SensitiveToContent)
{
    const workload::KernelArtifacts &art = workload::cachedKernelArtifacts(
        workload::KernelConfig::kLupine, kScale);
    Result<crypto::Sha256Digest> a = vmlinuxStreamDigest(art.vmlinux);
    ASSERT_TRUE(a.isOk());
    ByteVec mutated = art.vmlinux;
    mutated[mutated.size() / 2] ^= 1;
    Result<crypto::Sha256Digest> b = vmlinuxStreamDigest(mutated);
    ASSERT_TRUE(b.isOk());
    EXPECT_NE(*a, *b);
    // And differs from the whole-file hash (padding is skipped).
    EXPECT_NE(*a, crypto::Sha256::digest(art.vmlinux));
}

} // namespace
} // namespace sevf::verifier
