/**
 * @file
 * VMM tests: mptable geometry/checksums (Fig 7 sizes), boot_params
 * round-trip, fw_cfg staging, direct boot placement, and the
 * pre-encryption plan.
 */
#include <gtest/gtest.h>

#include "base/bytes.h"
#include "image/elf.h"
#include "verifier/verifier_binary.h"
#include "vmm/boot_params.h"
#include "vmm/debug_port.h"
#include "vmm/fw_cfg.h"
#include "vmm/layout.h"
#include "vmm/microvm.h"
#include "vmm/mptable.h"
#include "workload/synthetic.h"

namespace sevf::vmm {
namespace {

constexpr Spa kSpaBase = 0x100000000ull;

// ---------------------------------------------------------------- mptable

TEST(Mptable, PaperSizeFormula)
{
    // Fig 7: 284 B + 20 B per CPU.
    EXPECT_EQ(mptableSize(1), 304u);
    EXPECT_EQ(mptableSize(2), 324u);
    EXPECT_EQ(mptableSize(1) - 20, 284u);
    for (u32 cpus : {1u, 2u, 4u, 32u}) {
        EXPECT_EQ(buildMptable(cpus).size(), mptableSize(cpus));
    }
}

TEST(Mptable, ValidatesAndCountsCpus)
{
    for (u32 cpus : {1u, 4u, 16u}) {
        ByteVec table = buildMptable(cpus);
        Result<u32> got = validateMptable(table);
        ASSERT_TRUE(got.isOk()) << got.status().toString();
        EXPECT_EQ(*got, cpus);
    }
}

TEST(Mptable, ChecksumDetectsCorruption)
{
    ByteVec table = buildMptable(1);
    table[20] ^= 0x01; // inside the config table
    EXPECT_FALSE(validateMptable(table).isOk());
}

TEST(Mptable, BadSignatureRejected)
{
    ByteVec table = buildMptable(1);
    table[0] = 'X';
    EXPECT_FALSE(validateMptable(table).isOk());
}

// ------------------------------------------------------------ boot params

TEST(BootParams, RoundTrip)
{
    BootParamsInput in;
    in.memory_size = 256 * kMiB;
    in.cmdline_gpa = layout::kCmdlineGpa;
    in.cmdline_size = 155;
    in.initrd_gpa = layout::kInitrdPrivateGpa;
    in.initrd_size = 14 * kMiB;
    in.kernel_entry = 0x1000200;

    ByteVec page = buildBootParams(in);
    ASSERT_EQ(page.size(), kPageSize);
    Result<BootParamsView> view = parseBootParams(page);
    ASSERT_TRUE(view.isOk()) << view.status().toString();
    EXPECT_EQ(view->cmdline_gpa, layout::kCmdlineGpa);
    EXPECT_EQ(view->cmdline_size, 155u);
    EXPECT_EQ(view->initrd_gpa, layout::kInitrdPrivateGpa);
    EXPECT_EQ(view->initrd_size, 14 * kMiB);
    EXPECT_EQ(view->kernel_entry, 0x1000200u);
}

TEST(BootParams, E820CoversGuestMemory)
{
    BootParamsInput in;
    in.memory_size = 256 * kMiB;
    Result<BootParamsView> view = parseBootParams(buildBootParams(in));
    ASSERT_TRUE(view.isOk());
    ASSERT_EQ(view->e820.size(), 3u);
    EXPECT_EQ(view->e820[0].addr, 0u);
    EXPECT_EQ(view->e820[0].type, 1u);
    EXPECT_EQ(view->e820[2].addr, 0x100000u);
    EXPECT_EQ(view->e820[2].addr + view->e820[2].size, 256 * kMiB);
}

TEST(BootParams, RejectsCorruptPage)
{
    ByteVec page = buildBootParams({});
    page[0x202] = 0;
    EXPECT_FALSE(parseBootParams(page).isOk());
    ByteVec tiny(100, 0);
    EXPECT_FALSE(parseBootParams(tiny).isOk());
}

// ---------------------------------------------------------------- fw_cfg

TEST(FwCfgTest, StagesAndFinds)
{
    memory::GuestMemory mem(4 * kMiB, kSpaBase, 0);
    FwCfg fw(mem, 0x100000, 2 * kMiB);
    ByteVec a = toBytes("item-a");
    ByteVec b = toBytes("item-bb");
    ASSERT_TRUE(fw.addItem("a", a).isOk());
    Result<FwCfg::Item> item_b = fw.addItem("b", b);
    ASSERT_TRUE(item_b.isOk());
    EXPECT_EQ(item_b->gpa, 0x100000u + a.size());

    Result<FwCfg::Item> found = fw.find("a");
    ASSERT_TRUE(found.isOk());
    EXPECT_EQ(*mem.hostRead(found->gpa, found->size), a);
    EXPECT_FALSE(fw.find("missing").isOk());
    EXPECT_EQ(fw.bytesStaged(), a.size() + b.size());
}

TEST(FwCfgTest, WindowOverflowRejected)
{
    memory::GuestMemory mem(4 * kMiB, kSpaBase, 0);
    FwCfg fw(mem, 0x100000, 1024);
    ByteVec big(2048, 1);
    EXPECT_EQ(fw.addItem("big", big).status().code(),
              ErrorCode::kResourceExhausted);
}

TEST(FwCfgTest, StageVmlinuxMatchesFileGeometry)
{
    const workload::KernelArtifacts &art = workload::cachedKernelArtifacts(
        workload::KernelConfig::kLupine, 1.0 / 32.0);
    memory::GuestMemory mem(16 * kMiB, kSpaBase, 0);
    FwCfg fw(mem, 0x400000, 8 * kMiB);
    ASSERT_TRUE(stageVmlinuxViaFwCfg(fw, art.vmlinux).isOk());

    // ehdr at window base, matching the file's first 64 bytes.
    Result<FwCfg::Item> ehdr = fw.find("kernel/ehdr");
    ASSERT_TRUE(ehdr.isOk());
    EXPECT_EQ(ehdr->gpa, 0x400000u);
    EXPECT_EQ(*mem.hostRead(ehdr->gpa, 64),
              ByteVec(art.vmlinux.begin(), art.vmlinux.begin() + 64));

    // Segment items sit at their ELF file offsets.
    Result<image::ElfLayout> layout = image::parseElfHeader(art.vmlinux);
    ASSERT_TRUE(layout.isOk());
    Result<image::ElfPhdr> p0 = image::parseElfPhdr(
        ByteSpan(art.vmlinux).subspan(layout->phoff, image::kPhdrSize));
    ASSERT_TRUE(p0.isOk());
    Result<FwCfg::Item> seg0 = fw.find("kernel/seg0");
    ASSERT_TRUE(seg0.isOk());
    EXPECT_EQ(seg0->gpa, 0x400000u + p0->offset);
    EXPECT_EQ(seg0->size, p0->filesz);
}

// ---------------------------------------------------------------- microvm

class MicroVmTest : public ::testing::Test
{
  protected:
    MicroVmTest()
        : art_(workload::cachedKernelArtifacts(
              workload::KernelConfig::kLupine, 1.0 / 32.0)),
          initrd_(workload::syntheticInitrd(512 * kKiB, 99))
    {
        config_.memory_size = 256 * kMiB; // staging windows live high
    }

    VmConfig config_;
    const workload::KernelArtifacts &art_;
    ByteVec initrd_;
};

TEST_F(MicroVmTest, DirectBootPlacesKernelAndStructs)
{
    MicroVm vm(config_, kSpaBase, 0);
    Result<DirectBootLoad> load = vm.directBoot(art_.vmlinux, initrd_);
    ASSERT_TRUE(load.isOk()) << load.status().toString();
    EXPECT_EQ(load->entry, art_.entry);
    EXPECT_GT(load->kernel_file_bytes, 0u);

    // First segment bytes appear at the load address.
    Result<image::ElfView> elf = image::parseElfView(art_.vmlinux);
    ASSERT_TRUE(elf.isOk());
    const image::ElfSegmentView &seg0 = elf->segments[0];
    EXPECT_EQ(*vm.memory().hostRead(seg0.vaddr, 64),
              ByteVec(seg0.data.begin(), seg0.data.begin() + 64));

    // Structures parse back.
    Result<BootParamsView> bp = parseBootParams(
        *vm.memory().hostRead(load->structs.boot_params_gpa, kPageSize));
    ASSERT_TRUE(bp.isOk());
    EXPECT_EQ(bp->initrd_gpa, layout::kInitrdDirectGpa);
    EXPECT_TRUE(
        validateMptable(*vm.memory().hostRead(load->structs.mptable_gpa,
                                              load->structs.mptable_size))
            .isOk());
}

TEST_F(MicroVmTest, StageMeasuredComponents)
{
    MicroVm vm(config_, kSpaBase, 0);
    Result<StagedComponents> staged =
        vm.stageMeasuredComponents(art_.bzimage, initrd_);
    ASSERT_TRUE(staged.isOk());
    EXPECT_EQ(staged->kernel_gpa, layout::kKernelStagingGpa);
    EXPECT_EQ(*vm.memory().hostRead(staged->kernel_gpa, 64),
              ByteVec(art_.bzimage.begin(), art_.bzimage.begin() + 64));
}

TEST_F(MicroVmTest, PreEncryptionPlanShapeAndSize)
{
    MicroVm vm(config_, kSpaBase, 0);
    Result<BootStructs> structs = vm.stageBootStructs(0, 0, 0);
    ASSERT_TRUE(structs.isOk());
    verifier::BootHashes hashes =
        verifier::BootHashes::compute(art_.bzimage, initrd_, std::nullopt);
    Result<std::vector<attest::PreEncryptedRegion>> plan =
        vm.buildPreEncryptionPlan(verifier::verifierBinary(), hashes,
                                  *structs);
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    ASSERT_EQ(plan->size(), 5u);
    EXPECT_EQ((*plan)[0].name, "boot_verifier");
    EXPECT_EQ((*plan)[0].bytes.size(), verifier::kVerifierBinarySize);
    EXPECT_EQ((*plan)[2].name, "mptable");
    EXPECT_EQ((*plan)[2].bytes.size(), mptableSize(config_.vcpus));
    EXPECT_EQ((*plan)[4].name, "cmdline");
    EXPECT_EQ((*plan)[4].bytes.size(), config_.cmdline.size());

    // The whole root of trust stays tiny (the §4 point).
    EXPECT_LT(attest::totalPreEncryptedBytes(*plan), 32 * kKiB);
    // Default Firecracker cmdline is the Fig 7 155 bytes.
    EXPECT_EQ(config_.cmdline.size(), 155u);
}

TEST_F(MicroVmTest, DirectBootRejectsGarbageKernel)
{
    MicroVm vm(config_, kSpaBase, 0);
    ByteVec garbage(1000, 0xab);
    EXPECT_FALSE(vm.directBoot(garbage, initrd_).isOk());
}

TEST_F(MicroVmTest, StagingRejectsOversizeComponents)
{
    VmConfig tiny = config_;
    tiny.memory_size = 256 * kMiB;
    MicroVm vm(tiny, kSpaBase, 0);
    // An "initrd" too large for the staging window tail.
    ByteVec huge(64 * kMiB, 1);
    EXPECT_FALSE(vm.stageMeasuredComponents(art_.bzimage, huge).isOk());
}

TEST(DebugPortTest, RecordsAndRenders)
{
    DebugPort port;
    port.record(sim::Duration::millis(1), "vmm_start");
    port.record(sim::Duration::millis(5), "enter_guest");
    ASSERT_EQ(port.events().size(), 2u);
    std::string text = port.render();
    EXPECT_NE(text.find("vmm_start"), std::string::npos);
    EXPECT_NE(text.find("5.000ms"), std::string::npos);
}

} // namespace
} // namespace sevf::vmm
