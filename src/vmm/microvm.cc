#include "vmm/microvm.h"

#include "base/bytes.h"
#include "image/elf.h"
#include "obs/span.h"
#include "vmm/boot_params.h"
#include "vmm/layout.h"
#include "vmm/mptable.h"

namespace sevf::vmm {

MicroVm::MicroVm(VmConfig config, Spa spa_base, u32 asid,
                 memory::SevMode mode)
    : config_(std::move(config))
{
    SEVF_SPAN("vmm.create");
    memory_ = std::make_unique<memory::GuestMemory>(config_.memory_size,
                                                    spa_base, asid, mode);
}

MicroVm::~MicroVm()
{
    SEVF_SPAN("vmm.destroy");
    memory_.reset();
}

Result<BootStructs>
MicroVm::stageBootStructs(Gpa initrd_gpa, u64 initrd_size, u64 kernel_entry)
{
    BootStructs out;

    ByteVec mptable = buildMptable(config_.vcpus);
    SEVF_RETURN_IF_ERROR(memory_->hostWrite(layout::kMptableGpa, mptable));
    out.mptable_gpa = layout::kMptableGpa;
    out.mptable_size = mptable.size();

    SEVF_RETURN_IF_ERROR(
        memory_->hostWrite(layout::kCmdlineGpa, asBytes(config_.cmdline)));
    out.cmdline_gpa = layout::kCmdlineGpa;
    out.cmdline_size = config_.cmdline.size();

    BootParamsInput input;
    input.memory_size = config_.memory_size;
    input.cmdline_gpa = layout::kCmdlineGpa;
    input.cmdline_size = static_cast<u32>(config_.cmdline.size());
    input.initrd_gpa = initrd_gpa;
    input.initrd_size = initrd_size;
    input.kernel_entry = kernel_entry;
    ByteVec zero_page = buildBootParams(input);
    SEVF_RETURN_IF_ERROR(
        memory_->hostWrite(layout::kBootParamsGpa, zero_page));
    out.boot_params_gpa = layout::kBootParamsGpa;
    out.boot_params_size = zero_page.size();

    return out;
}

Result<DirectBootLoad>
MicroVm::directBoot(ByteSpan vmlinux, ByteSpan initrd)
{
    Result<image::ElfView> elf = image::parseElfView(vmlinux);
    if (!elf.isOk()) {
        return elf.status();
    }

    DirectBootLoad out;
    // 1. Load each ELF segment to the location it will run.
    for (const image::ElfSegmentView &seg : elf->segments) {
        SEVF_RETURN_IF_ERROR(memory_->hostWrite(seg.vaddr, seg.data));
        out.kernel_file_bytes += seg.data.size();
        if (seg.memsz > seg.data.size()) {
            ByteVec zeros(seg.memsz - seg.data.size(), 0);
            SEVF_RETURN_IF_ERROR(
                memory_->hostWrite(seg.vaddr + seg.data.size(), zeros));
        }
    }

    // Initrd loaded high.
    SEVF_RETURN_IF_ERROR(memory_->hostWrite(layout::kInitrdDirectGpa, initrd));
    out.initrd_bytes = initrd.size();

    // 2. Data structures Linux needs to boot.
    Result<BootStructs> structs = stageBootStructs(
        layout::kInitrdDirectGpa, initrd.size(), elf->entry);
    if (!structs.isOk()) {
        return structs.status();
    }
    out.structs = *structs;

    // 3. Skip real mode; enter at the 64-bit entry point.
    out.entry = elf->entry;
    return out;
}

Result<StagedComponents>
MicroVm::stageMeasuredComponents(ByteSpan kernel_image, ByteSpan initrd)
{
    StagedComponents out;
    SEVF_RETURN_IF_ERROR(
        memory_->hostWrite(layout::kKernelStagingGpa, kernel_image));
    out.kernel_gpa = layout::kKernelStagingGpa;
    out.kernel_size = kernel_image.size();
    SEVF_RETURN_IF_ERROR(
        memory_->hostWrite(layout::kInitrdStagingGpa, initrd));
    out.initrd_gpa = layout::kInitrdStagingGpa;
    out.initrd_size = initrd.size();
    return out;
}

Result<std::vector<attest::PreEncryptedRegion>>
MicroVm::buildPreEncryptionPlan(ByteSpan verifier_binary,
                                const verifier::BootHashes &hashes,
                                const BootStructs &structs)
{
    auto read_region = [this](std::string name, Gpa gpa,
                              u64 size) -> Result<attest::PreEncryptedRegion> {
        Result<ByteVec> bytes = memory_->hostRead(gpa, size);
        if (!bytes.isOk()) {
            return bytes.status();
        }
        return attest::PreEncryptedRegion{std::move(name), gpa,
                                          bytes.take()};
    };

    std::vector<attest::PreEncryptedRegion> plan;

    // The boot verifier binary is staged here, then measured.
    SEVF_RETURN_IF_ERROR(
        memory_->hostWrite(layout::kVerifierGpa, verifier_binary));
    plan.push_back({"boot_verifier", layout::kVerifierGpa,
                    ByteVec(verifier_binary.begin(), verifier_binary.end())});

    // The out-of-band component hashes (Fig 2 step 2).
    ByteVec hash_page = hashes.toPage();
    SEVF_RETURN_IF_ERROR(
        memory_->hostWrite(layout::kHashTableGpa, hash_page));
    plan.push_back(
        {"component_hashes", layout::kHashTableGpa, std::move(hash_page)});

    // The Fig 7 pre-encrypted structures.
    Result<attest::PreEncryptedRegion> mpt = read_region(
        "mptable", structs.mptable_gpa, structs.mptable_size);
    if (!mpt.isOk()) {
        return mpt.status();
    }
    plan.push_back(mpt.take());

    Result<attest::PreEncryptedRegion> bp = read_region(
        "boot_params", structs.boot_params_gpa, structs.boot_params_size);
    if (!bp.isOk()) {
        return bp.status();
    }
    plan.push_back(bp.take());

    Result<attest::PreEncryptedRegion> cmd = read_region(
        "cmdline", structs.cmdline_gpa, structs.cmdline_size);
    if (!cmd.isOk()) {
        return cmd.status();
    }
    plan.push_back(cmd.take());

    return plan;
}

} // namespace sevf::vmm
