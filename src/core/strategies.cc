/**
 * @file
 * The five boot strategies (see core/launch.h) and the one launch
 * pipeline they share. Each strategy is a prepare function that runs
 * its boot *functionally* - real bytes staged, measured, encrypted,
 * verified, decompressed - up to the template point, charging
 * calibrated virtual time into the BootTrace with the paper's phase
 * labels. BootStrategy::launch captures a template there when it holds
 * the single-flight claim, then runs the one guest tail for cold and
 * warm launches alike.
 */
#include "core/launch.h"

#include <memory>
#include <optional>

#include "attest/expected_measurement.h"
#include "attest/guest_owner.h"
#include "base/bytes.h"
#include "base/parallel.h"
#include "cache/launch_key.h"
#include "cache/template_cache.h"
#include "core/trace_builder.h"
#include "crypto/measurement.h"
#include "firmware/ovmf.h"
#include "guest/attestation_client.h"
#include "guest/bootstrap_loader.h"
#include "image/bzimage.h"
#include "image/elf.h"
#include "memory/dram.h"
#include "obs/families.h"
#include "obs/span.h"
#include "psp/psp.h"
#include "verifier/verifier_binary.h"
#include "vmm/fw_cfg.h"
#include "vmm/layout.h"
#include "vmm/microvm.h"
#include "vmm/mptable.h"
#include "workload/synthetic.h"

namespace sevf::core {

namespace {

namespace layout = vmm::layout;
using sim::phase::kAttestation;
using sim::phase::kBootVerification;
using sim::phase::kBootstrapLoader;
using sim::phase::kFirmware;
using sim::phase::kLinuxBoot;
using sim::phase::kPreEncryption;
using sim::phase::kVmm;

/** Private destination for the attestation secret. */
constexpr Gpa kSecretGpa = 0x280000;

/**
 * A launch stopped at the template point: all host-side work (staging,
 * pre-encryption, measurement) and the in-guest verifier and loader are
 * done, and only the guest tail remains. A cold launch gets here through
 * its strategy's prepare function, a warm one by restoring a template.
 */
struct PreparedLaunch {
    explicit PreparedLaunch(StrategyKind kind) { result.strategy = kind; }

    std::shared_ptr<vmm::MicroVm> vm;
    psp::GuestHandle handle = 0;
    /** The regions the PSP measured (empty on a warm launch). */
    std::vector<attest::PreEncryptedRegion> plan;
    /** The measurement the guest owner expects, when known without
     *  replaying the plan (the template's, on a warm launch). */
    std::optional<crypto::Sha256Digest> expected;
    TraceBuilder tb;
    LaunchResult result;
};

/** A fresh VM in its own SPA window: under a new ASID for an SEV
 *  strategy, without one for the non-SEV baseline. */
std::shared_ptr<vmm::MicroVm>
newVm(Platform &platform, const LaunchRequest &request, StrategyKind kind)
{
    const bool sev = kind != StrategyKind::kStockFirecracker;
    return std::make_shared<vmm::MicroVm>(
        request.vm, platform.allocateSpaWindow(request.vm.memory_size),
        sev ? platform.psp().allocateAsid() : 0, request.sev_mode);
}

/** Assign+validate every page the guest does not already own. */
Status
claimRemainingPages(memory::GuestMemory &mem)
{
    for (Gpa page = 0; page < mem.size(); page += kPageSize) {
        if (mem.rmp().entryAt(mem.spaOf(page)).validated) {
            continue;
        }
        SEVF_RETURN_IF_ERROR(
            mem.rmp().rmpUpdate(mem.spaOf(page), mem.asid(), page, true));
        SEVF_RETURN_IF_ERROR(
            mem.rmp().pvalidate(mem.spaOf(page), mem.asid(), page, true));
    }
    return Status::ok();
}

/** The guest-owner secret provisioned on successful attestation. */
ByteVec
ownerSecret(u64 seed)
{
    return toBytes("disk-key-" + std::to_string(seed));
}

/**
 * Out-of-band digest of a staged boot component (§4.3). When @p staged
 * is the process-lifetime @p artifact itself it is hashed once per
 * process (cache::cachedContentDigest); a variant re-encoded for this
 * launch is hashed per launch.
 */
crypto::Sha256Digest
componentDigest(ByteSpan staged, const ByteVec &artifact)
{
    bool is_artifact = staged.data() == artifact.data() &&
                       staged.size() == artifact.size();
    return is_artifact ? cache::cachedContentDigest(artifact)
                       : crypto::Sha256::digest(staged);
}

/**
 * The in-guest boot verifier under a wall span named after its sim
 * phase. The span lives here, outside the root of trust: verifier/ and
 * guest/ make no obs calls.
 */
Result<verifier::VerifiedBoot>
runVerifierStage(memory::GuestMemory &mem,
                 const verifier::VerifierInputs &inputs)
{
    SEVF_SPAN(kBootVerification);
    verifier::BootVerifier boot_verifier(mem);
    return boot_verifier.run(inputs);
}

/**
 * The bzImage bootstrap loader under its sim phase's wall span, charged
 * as its entry and kernel-decompression steps. Its decompression area
 * is a host buffer as large as guest RAM, on 2 MiB pages
 * (memory/dram.h), mapped lazily and freed when the loader returns; the
 * loader decodes into no more of it than the setup header's init_size.
 * Like the span, the area lives outside the root of trust: memory/dram
 * is banned from its closure.
 */
Result<guest::LoadedKernel>
runLoaderStage(const sim::CostModel &cost, TraceBuilder &tb,
               memory::GuestMemory &mem, Gpa bzimage_gpa, u64 size,
               const guest::KaslrConfig &kaslr = {})
{
    SEVF_SPAN(kBootstrapLoader);
    memory::DramBuffer decode_area(mem.size());
    SEVF_ASSIGN_OR_RETURN(
        guest::LoadedKernel loaded,
        guest::runBootstrapLoader(
            mem, bzimage_gpa, size, true,
            MutByteSpan(decode_area.data(), decode_area.size()), kaslr));
    tb.cpu(cost.bootstrapFixed(), kBootstrapLoader, "bootstrap_entry");
    tb.cpu(cost.decompressCost(loaded.codec, loaded.decompressed_bytes),
           kBootstrapLoader, "decompress_kernel");
    return loaded;
}

/** Remote attestation under its sim phase's wall span, outside the root
 *  of trust like the verifier and loader stages. */
Result<guest::AttestationOutcome>
runAttestationStage(Platform &platform, psp::GuestHandle handle,
                    memory::GuestMemory &mem, attest::GuestOwner &owner,
                    u64 seed)
{
    SEVF_SPAN(kAttestation);
    return guest::runAttestation(platform.psp(), handle, mem, kSecretGpa,
                                 owner, seed ^ 0x9e57);
}

/** Charge the PSP launch flow and execute it functionally. */
Result<psp::GuestHandle>
runLaunchFlow(Platform &platform, TraceBuilder &tb, vmm::MicroVm &vm,
              const std::vector<attest::PreEncryptedRegion> &plan,
              const LaunchRequest &request)
{
    const sim::CostModel &cost = platform.cost();
    const memory::SevMode mode = vm.memory().sevMode();
    const bool hugepages = request.vm.hugepages;

    if (memory::hasIntegrity(mode)) {
        // RMP initialization only exists on SNP parts.
        tb.psp(cost.pspRmpInit(), kVmm, "psp_rmp_init");
    }
    Result<psp::GuestHandle> handle =
        request.share_platform_key
            ? platform.psp().launchStartShared(vm.memory(),
                                               request.vm.sev_policy)
            : platform.psp().launchStart(vm.memory(),
                                         request.vm.sev_policy);
    if (!handle.isOk()) {
        return handle.status();
    }
    if (request.share_platform_key) {
        tb.psp(cost.pspLaunchStartShared(), kVmm,
               "sev_launch_start_shared_key");
    } else {
        tb.psp(cost.pspLaunchStart(), kVmm, "sev_launch_start");
    }
    for (const attest::PreEncryptedRegion &r : plan) {
        SEVF_RETURN_IF_ERROR(platform.psp().launchUpdateData(
            *handle, vm.memory(), r.gpa, r.bytes.size()));
        tb.psp(cost.pspLaunchUpdate(r.bytes.size(), mode, hugepages),
               kPreEncryption, "launch_update:" + r.name);
    }
    // SEV-ES/SNP: measure + encrypt the initial register state so the
    // host cannot choose the guest's entry context.
    if (memory::hasEncryptedState(mode)) {
        for (u32 cpu = 0; cpu < request.vm.vcpus; ++cpu) {
            SEVF_RETURN_IF_ERROR(platform.psp().launchUpdateVmsa(
                *handle, vm.memory(), cpu,
                layout::kVmsaGpa + cpu * kPageSize));
            tb.psp(cost.pspLaunchUpdate(kPageSize, mode, hugepages),
                   kPreEncryption,
                   "launch_update:vmsa" + std::to_string(cpu));
        }
    }
    SEVF_RETURN_IF_ERROR(platform.psp().launchFinish(*handle));
    tb.psp(cost.pspLaunchFinish(), kVmm, "sev_launch_finish");
    tb.cpu(cost.kvmPinPages(vm.memory().size()), kVmm, "kvm_pin_pages");
    return handle;
}

// ===================================================================
// Stock Firecracker (non-SEV baseline, §2.1)
// ===================================================================

Result<PreparedLaunch>
prepareStockFirecracker(Platform &platform, const LaunchRequest &request)
{
    const sim::CostModel &cost = platform.cost();
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(request.kernel, request.scale);
    const ByteVec &initrd = workload::cachedInitrd(request.scale);

    PreparedLaunch p(StrategyKind::kStockFirecracker);
    p.tb.cpu(cost.fcProcessStart(), kVmm, "firecracker_start");
    p.vm = newVm(platform, request, StrategyKind::kStockFirecracker);

    SEVF_ASSIGN_OR_RETURN(vmm::DirectBootLoad load,
                          p.vm->directBoot(art.vmlinux, initrd));
    p.tb.cpu(cost.vmmLoad(load.kernel_file_bytes + load.initrd_bytes +
                          load.structs.totalBytes()),
             kVmm, "load_kernel_and_initrd");
    p.tb.cpu(cost.fcSetup(), kVmm, "vm_setup");
    return p;
}

// ===================================================================
// SEVeriFast (§4): minimal verifier + measured direct boot
// ===================================================================

Result<PreparedLaunch>
prepareSeveriFast(Platform &platform, const LaunchRequest &request,
                  bool bzimage)
{
    const StrategyKind kind = bzimage ? StrategyKind::kSeveriFastBz
                                      : StrategyKind::kSeveriFastVmlinux;
    const sim::CostModel &cost = platform.cost();
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(request.kernel, request.scale);
    const ByteVec &initrd_raw = workload::cachedInitrd(request.scale);

    // Kernel image per the requested format/codec (built offline).
    ByteVec kernel_storage;
    ByteSpan kernel_image;
    if (bzimage) {
        if (request.kernel_codec == compress::CodecKind::kLz4) {
            kernel_image = art.bzimage;
        } else {
            image::BzImageBuildConfig cfg;
            cfg.codec = request.kernel_codec;
            kernel_storage = image::buildBzImage(art.vmlinux, cfg);
            kernel_image = kernel_storage;
        }
    } else {
        kernel_image = art.vmlinux;
    }

    // Initrd, optionally compressed (the Fig 5 trade-off).
    ByteVec initrd_storage;
    ByteSpan staged_initrd;
    if (request.initrd_codec == compress::CodecKind::kNone) {
        staged_initrd = initrd_raw;
    } else {
        initrd_storage =
            compress::codecFor(request.initrd_codec).compress(initrd_raw);
        staged_initrd = initrd_storage;
    }

    ByteVec bloated_verifier;
    if (request.verifier_size != 0) {
        bloated_verifier =
            verifier::bloatedVerifierBinary(request.verifier_size);
    }
    ByteSpan verifier_bin = request.verifier_size == 0
                                ? verifier::verifierBinary()
                                : bloated_verifier;

    PreparedLaunch p(kind);
    TraceBuilder &tb = p.tb;

    // ---- VMM side ----
    tb.cpu(cost.fcProcessStart(), kVmm, "firecracker_start");
    tb.cpu(cost.kvmSnpInit(), kVmm, "kvm_snp_init");
    p.vm = newVm(platform, request, kind);
    vmm::MicroVm &vm = *p.vm;

    // Stage components into shared windows (Fig 2 step 3).
    if (bzimage) {
        SEVF_RETURN_IF_ERROR(
            vm.stageMeasuredComponents(kernel_image, staged_initrd).status());
    } else {
        vmm::FwCfg fw(vm.memory(), layout::kKernelStagingGpa,
                      layout::kInitrdStagingGpa -
                          layout::kKernelStagingGpa);
        SEVF_RETURN_IF_ERROR(stageVmlinuxViaFwCfg(fw, kernel_image));
        SEVF_RETURN_IF_ERROR(vm.memory().hostWrite(
            layout::kInitrdStagingGpa, staged_initrd));
    }
    tb.cpu(cost.vmmLoad(kernel_image.size() + staged_initrd.size()), kVmm,
           "stage_components");

    // Boot structures (Fig 7 pre-encrypt set).
    const Gpa initrd_final =
        request.initrd_codec == compress::CodecKind::kNone
            ? layout::kInitrdPrivateGpa
            : layout::kInitrdDecompressedGpa;
    SEVF_ASSIGN_OR_RETURN(
        vmm::BootStructs structs,
        vm.stageBootStructs(initrd_final, initrd_raw.size(), 0));
    tb.cpu(cost.fcSetup(), kVmm, "vm_setup");

    // Component hashes: out-of-band by default (§4.3); otherwise
    // charge the in-VMM hashing the paper eliminates.
    verifier::BootHashes hashes;
    if (bzimage) {
        hashes.kernel = componentDigest(kernel_image, art.bzimage);
    } else {
        SEVF_ASSIGN_OR_RETURN(hashes.kernel,
                              verifier::vmlinuxStreamDigest(kernel_image));
    }
    hashes.kernel_size = kernel_image.size();
    hashes.initrd = componentDigest(staged_initrd, initrd_raw);
    hashes.initrd_size = staged_initrd.size();
    if (!request.out_of_band_hashing) {
        tb.cpu(cost.vmmHash(kernel_image.size() + staged_initrd.size()),
               kVmm, "hash_components_in_vmm");
    }

    SEVF_ASSIGN_OR_RETURN(
        p.plan, vm.buildPreEncryptionPlan(verifier_bin, hashes, structs));
    p.result.pre_encrypted_bytes = attest::totalPreEncryptedBytes(p.plan);

    SEVF_ASSIGN_OR_RETURN(p.handle,
                          runLaunchFlow(platform, tb, vm, p.plan, request));
    p.result.measurement = *platform.psp().launchMeasure(p.handle);

    // ---- Boot verifier (in-guest) ----
    verifier::VerifierInputs inputs;
    inputs.kernel_staging = layout::kKernelStagingGpa;
    inputs.initrd_staging = layout::kInitrdStagingGpa;
    inputs.hash_table_gpa = layout::kHashTableGpa;
    inputs.kernel_private = layout::kBzImagePrivateGpa;
    inputs.initrd_private = layout::kInitrdPrivateGpa;
    inputs.page_table_root = layout::kPageTableGpa;
    inputs.kernel_kind = bzimage ? verifier::KernelImageKind::kBzImage
                                 : verifier::KernelImageKind::kVmlinux;
    inputs.hugepages = request.vm.hugepages;
    inputs.keep_shared = {
        {layout::kKernelStagingGpa, kernel_image.size()},
        {layout::kInitrdStagingGpa, staged_initrd.size()},
    };

    SEVF_ASSIGN_OR_RETURN(verifier::VerifiedBoot boot,
                          runVerifierStage(vm.memory(), inputs));
    p.result.verifier_stats = boot.stats;

    tb.cpu(cost.pvalidateSweep(boot.stats.pages_validated * kPageSize,
                               request.vm.hugepages),
           kBootVerification, "pvalidate_sweep");
    tb.cpu(cost.pageTableInit(), kBootVerification, "init_page_tables");
    tb.cpu(cost.cpuCopy(boot.stats.bytes_copied), kBootVerification,
           "copy_to_private");
    tb.cpu(cost.cpuSha256(boot.stats.bytes_hashed), kBootVerification,
           "rehash_components");
    tb.cpu(cost.verifierFixed(), kBootVerification, "verify_digests");

    // ---- Bootstrap loader (bzImage path only, §4.4) ----
    if (bzimage) {
        guest::KaslrConfig kaslr;
        if (request.guest_kaslr) {
            kaslr.enabled = true;
            kaslr.seed = request.seed ^ 0x4a514c; // in-guest RDRAND
            // Keep the slid kernel clear of the private bzImage region
            // that starts at 80 MiB.
            u64 load_end = layout::kKernelLoadGpa +
                           workload::kernelSpec(request.kernel).vmlinux_size +
                           2 * kMiB;
            kaslr.max_slide =
                load_end < layout::kBzImagePrivateGpa
                    ? alignDown(layout::kBzImagePrivateGpa - load_end,
                                kHugePageSize)
                    : 0;
        }
        SEVF_ASSIGN_OR_RETURN(
            guest::LoadedKernel loaded,
            runLoaderStage(cost, tb, vm.memory(), boot.kernel_gpa,
                           boot.kernel_size, kaslr));
        p.result.kaslr_slide = loaded.kaslr_slide;
    }

    // Compressed-initrd variant: the guest must inflate it before
    // unpacking the CPIO (the Fig 5 "leave it uncompressed" lesson).
    if (request.initrd_codec != compress::CodecKind::kNone) {
        SEVF_ASSIGN_OR_RETURN(
            ByteVec packed,
            vm.memory().guestRead(layout::kInitrdPrivateGpa,
                                  staged_initrd.size(), true));
        SEVF_ASSIGN_OR_RETURN(
            ByteVec inflated,
            compress::codecFor(request.initrd_codec).decompress(packed));
        SEVF_RETURN_IF_ERROR(vm.memory().guestWrite(
            layout::kInitrdDecompressedGpa, inflated, true));
        tb.cpu(cost.decompressCost(request.initrd_codec, inflated.size()),
               kBootstrapLoader, "decompress_initrd");
    }
    return p;
}

// ===================================================================
// QEMU/OVMF SEV (§2.5 state of the art, the Fig 3/9/10 baseline)
// ===================================================================

Result<PreparedLaunch>
prepareQemuOvmf(Platform &platform, const LaunchRequest &request)
{
    const sim::CostModel &cost = platform.cost();
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(request.kernel, request.scale);
    const ByteVec &initrd = workload::cachedInitrd(request.scale);
    const ByteVec ovmf = firmware::ovmfImage(cost);

    PreparedLaunch p(StrategyKind::kQemuOvmfSev);
    TraceBuilder &tb = p.tb;

    // ---- QEMU side ----
    tb.cpu(cost.qemuProcessStart(), kVmm, "qemu_start");
    tb.cpu(cost.qemuSetup(), kVmm, "machine_setup");
    p.vm = newVm(platform, request, StrategyKind::kQemuOvmfSev);
    vmm::MicroVm &vm = *p.vm;

    SEVF_RETURN_IF_ERROR(
        vm.memory().hostWrite(firmware::kOvmfBaseGpa, ovmf));
    SEVF_RETURN_IF_ERROR(
        vm.stageMeasuredComponents(art.bzimage, initrd).status());
    ByteVec cmdline_z = toBytes(request.vm.cmdline);
    cmdline_z.push_back(0);
    SEVF_RETURN_IF_ERROR(
        vm.memory().hostWrite(layout::kCmdlineStagingGpa, cmdline_z));
    tb.cpu(cost.vmmLoad(ovmf.size() + art.bzimage.size() + initrd.size()),
           kVmm, "load_firmware_and_components");

    // QEMU hashes all three components in the VMM, on the critical
    // path (no out-of-band option upstream, §4.3).
    verifier::BootHashes hashes = verifier::BootHashes::compute(
        art.bzimage, initrd, asBytes(request.vm.cmdline));
    tb.cpu(cost.vmmHash(art.bzimage.size() + initrd.size() +
                        request.vm.cmdline.size()),
           kVmm, "hash_components_in_vmm");

    // Pre-encryption plan: the entire OVMF volume + the hash page.
    p.plan.push_back({"ovmf", firmware::kOvmfBaseGpa, ovmf});
    ByteVec hash_page = hashes.toPage();
    SEVF_RETURN_IF_ERROR(
        vm.memory().hostWrite(layout::kHashTableGpa, hash_page));
    p.plan.push_back({"component_hashes", layout::kHashTableGpa,
                      std::move(hash_page)});
    p.result.pre_encrypted_bytes = attest::totalPreEncryptedBytes(p.plan);

    SEVF_ASSIGN_OR_RETURN(p.handle,
                          runLaunchFlow(platform, tb, vm, p.plan, request));
    // The QEMU flow issues extra session/VMSA commands (Fig 10's
    // 287.8 ms pre-encryption vs the raw 1 MiB cost).
    tb.psp(cost.qemuSessionPsp(), kPreEncryption, "sev_session_vmsa");
    p.result.measurement = *platform.psp().launchMeasure(p.handle);

    // ---- OVMF (in-guest): full PI phase sequence first ----
    for (const firmware::UefiPhase &ph : firmware::uefiPhases(cost)) {
        tb.cpu(ph.duration, kFirmware, "ovmf_" + ph.name);
    }

    // ---- OVMF's measured-direct-boot verifier ----
    verifier::VerifierInputs inputs;
    inputs.kernel_staging = layout::kKernelStagingGpa;
    inputs.initrd_staging = layout::kInitrdStagingGpa;
    inputs.hash_table_gpa = layout::kHashTableGpa;
    inputs.kernel_private = layout::kBzImagePrivateGpa;
    inputs.initrd_private = layout::kInitrdPrivateGpa;
    inputs.page_table_root = layout::kPageTableGpa;
    inputs.kernel_kind = verifier::KernelImageKind::kBzImage;
    inputs.hugepages = request.vm.hugepages;
    inputs.cmdline_staging = layout::kCmdlineStagingGpa;
    inputs.cmdline_private = layout::kCmdlineGpa;
    inputs.keep_shared = {
        {layout::kKernelStagingGpa, art.bzimage.size()},
        {layout::kInitrdStagingGpa, initrd.size()},
        {layout::kCmdlineStagingGpa, kPageSize},
    };
    SEVF_ASSIGN_OR_RETURN(verifier::VerifiedBoot boot,
                          runVerifierStage(vm.memory(), inputs));
    p.result.verifier_stats = boot.stats;
    // EDKII copy+hash runs slower than the SEVeriFast verifier.
    tb.cpu(cost.ovmfVerify(boot.stats.bytes_hashed), kBootVerification,
           "ovmf_verify_components");

    // ---- Bootstrap loader + kernel ----
    SEVF_RETURN_IF_ERROR(runLoaderStage(cost, tb, vm.memory(),
                                        boot.kernel_gpa, boot.kernel_size)
                             .status());
    return p;
}

// ===================================================================
// SEV direct boot (§3.2 strawman: pre-encrypt the kernel itself)
// ===================================================================

Result<PreparedLaunch>
prepareSevDirectBoot(Platform &platform, const LaunchRequest &request)
{
    const sim::CostModel &cost = platform.cost();
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(request.kernel, request.scale);
    const ByteVec &initrd_raw = workload::cachedInitrd(request.scale);
    const bool bzimage = request.kernel_codec != compress::CodecKind::kNone;

    ByteVec initrd_storage;
    ByteSpan initrd = initrd_raw;
    if (request.initrd_codec != compress::CodecKind::kNone) {
        initrd_storage =
            compress::codecFor(request.initrd_codec).compress(initrd_raw);
        initrd = initrd_storage;
    }

    PreparedLaunch p(StrategyKind::kSevDirectBoot);
    TraceBuilder &tb = p.tb;

    tb.cpu(cost.fcProcessStart(), kVmm, "firecracker_start");
    tb.cpu(cost.kvmSnpInit(), kVmm, "kvm_snp_init");
    p.vm = newVm(platform, request, StrategyKind::kSevDirectBoot);
    vmm::MicroVm &vm = *p.vm;

    // Place components where they run, then pre-encrypt EVERYTHING:
    // kernel, initrd, structs - the §3.2 anti-pattern.
    std::vector<attest::PreEncryptedRegion> &plan = p.plan;
    u64 kernel_entry = 0;
    u64 staged_bytes = 0;
    if (bzimage) {
        SEVF_RETURN_IF_ERROR(
            vm.memory().hostWrite(layout::kBzImagePrivateGpa, art.bzimage));
        plan.push_back({"bzimage", layout::kBzImagePrivateGpa, art.bzimage});
        staged_bytes += art.bzimage.size();
    } else {
        SEVF_ASSIGN_OR_RETURN(image::ElfView elf,
                              image::parseElfView(art.vmlinux));
        kernel_entry = elf.entry;
        for (std::size_t i = 0; i < elf.segments.size(); ++i) {
            const image::ElfSegmentView &seg = elf.segments[i];
            SEVF_RETURN_IF_ERROR(vm.memory().hostWrite(seg.vaddr, seg.data));
            plan.push_back({"kernel_seg" + std::to_string(i), seg.vaddr,
                            ByteVec(seg.data.begin(), seg.data.end())});
            staged_bytes += seg.data.size();
        }
    }
    SEVF_RETURN_IF_ERROR(
        vm.memory().hostWrite(layout::kInitrdPrivateGpa, initrd));
    plan.push_back({"initrd", layout::kInitrdPrivateGpa,
                    ByteVec(initrd.begin(), initrd.end())});
    staged_bytes += initrd.size();

    SEVF_ASSIGN_OR_RETURN(
        vmm::BootStructs structs,
        vm.stageBootStructs(layout::kInitrdPrivateGpa, initrd.size(),
                            kernel_entry));
    for (const auto &[name, gpa, size] :
         {std::tuple<const char *, Gpa, u64>{
              "mptable", structs.mptable_gpa, structs.mptable_size},
          {"boot_params", structs.boot_params_gpa, structs.boot_params_size},
          {"cmdline", structs.cmdline_gpa, structs.cmdline_size}}) {
        SEVF_ASSIGN_OR_RETURN(ByteVec bytes, vm.memory().hostRead(gpa, size));
        plan.push_back({name, gpa, std::move(bytes)});
    }
    tb.cpu(cost.vmmLoad(staged_bytes), kVmm, "load_components");
    tb.cpu(cost.fcSetup(), kVmm, "vm_setup");

    p.result.pre_encrypted_bytes = attest::totalPreEncryptedBytes(plan);
    SEVF_ASSIGN_OR_RETURN(p.handle,
                          runLaunchFlow(platform, tb, vm, plan, request));
    p.result.measurement = *platform.psp().launchMeasure(p.handle);

    // ---- Guest: claim memory (SNP), maybe decompress ----
    if (vm.memory().integrityEnforced()) {
        SEVF_RETURN_IF_ERROR(claimRemainingPages(vm.memory()));
        tb.cpu(cost.pvalidateSweep(vm.memory().size(), request.vm.hugepages),
               kBootVerification, "pvalidate_sweep");
    }

    if (bzimage) {
        SEVF_RETURN_IF_ERROR(runLoaderStage(cost, tb, vm.memory(),
                                            layout::kBzImagePrivateGpa,
                                            art.bzimage.size())
                                 .status());
    }
    return p;
}

Result<PreparedLaunch>
prepare(Platform &platform, const LaunchRequest &request, StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::kStockFirecracker:
        return prepareStockFirecracker(platform, request);
      case StrategyKind::kQemuOvmfSev:
        return prepareQemuOvmf(platform, request);
      case StrategyKind::kSevDirectBoot:
        return prepareSevDirectBoot(platform, request);
      case StrategyKind::kSeveriFastBz:
        return prepareSeveriFast(platform, request, /*bzimage=*/true);
      case StrategyKind::kSeveriFastVmlinux:
        return prepareSeveriFast(platform, request, /*bzimage=*/false);
    }
    panic("unknown strategy kind");
}

// ===================================================================
// The template point: capture and restore
// ===================================================================

/**
 * Snapshot a prepared cold launch as a template: the plan with its page
 * digests, guest memory, the steps so far and the result fields. Null
 * when the memory snapshot is refused (e.g. secret-labelled pages),
 * which is always safe: this and later launches simply stay cold.
 */
std::shared_ptr<const cache::LaunchTemplate>
captureTemplate(const LaunchRequest &request, const PreparedLaunch &p)
{
    SEVF_SPAN("cache.capture", "strategy", strategyName(p.result.strategy));
    memory::GuestMemory &mem = p.vm->memory();

    // The warm path regenerates the plan regions (premeasured launch
    // flow) and the VMSAs (live LAUNCH_UPDATE_VMSA) itself, so both are
    // excluded from the memory snapshot.
    std::vector<memory::GpaRange> exclude;
    for (const attest::PreEncryptedRegion &r : p.plan) {
        exclude.push_back({alignDown(r.gpa, kPageSize),
                           alignUp(r.gpa + r.bytes.size(), kPageSize)});
    }
    if (memory::hasEncryptedState(mem.sevMode())) {
        exclude.push_back(
            {layout::kVmsaGpa,
             layout::kVmsaGpa + u64{request.vm.vcpus} * kPageSize});
    }
    Result<memory::MemorySnapshot> snap = mem.captureSnapshot(exclude);
    if (!snap.isOk()) {
        return nullptr;
    }

    auto t = std::make_shared<cache::LaunchTemplate>();
    for (const attest::PreEncryptedRegion &r : p.plan) {
        cache::TemplateRegion region;
        region.name = r.name;
        region.gpa = r.gpa;
        region.page_digests = crypto::pageContentDigests(r.bytes);
        region.plaintext = std::make_shared<const ByteVec>(r.bytes);
        t->plan.push_back(std::move(region));
    }
    t->snapshot = snap.take();
    t->steps = p.tb.trace().steps();
    t->measurement = p.result.measurement;
    t->pre_encrypted_bytes = p.result.pre_encrypted_bytes;
    t->verifier.pages_validated = p.result.verifier_stats.pages_validated;
    t->verifier.bytes_copied = p.result.verifier_stats.bytes_copied;
    t->verifier.bytes_hashed = p.result.verifier_stats.bytes_hashed;
    t->verifier.pagetable_bytes = p.result.verifier_stats.pagetable_bytes;
    return t;
}

/**
 * The warm prepare: restore @p t into a fresh VM, which then stands
 * where the cold launch that captured @p t stood at the template point.
 */
Result<PreparedLaunch>
restoreTemplate(Platform &platform, const LaunchRequest &request,
                StrategyKind kind, const cache::LaunchTemplate &t)
{
    SEVF_SPAN("launch_from_template", "strategy", strategyName(kind));
    PreparedLaunch p(kind);
    p.result.cache_hit = true;
    p.vm = newVm(platform, request, kind);
    memory::GuestMemory &mem = p.vm->memory();
    // A restore writes a few scattered pages: keep them 4 KiB, since
    // each touch of a 2 MiB page would fault in a whole huge page.
    mem.useSmallPages();
    if (mem.size() != t.snapshot.memory_size) {
        return errInvalidState(
            "cached template does not match the VM memory size");
    }

    if (mem.sevMode() != memory::SevMode::kNone) {
        // The real PSP launch flow, but with the measurement chain
        // extended from the cached per-page digests instead of
        // re-hashing the plan: the plaintext is re-encrypted under THIS
        // VM's key (ciphertexts are per-VM; digests are not).
        SEVF_ASSIGN_OR_RETURN(
            p.handle, request.share_platform_key
                          ? platform.psp().launchStartShared(
                                mem, request.vm.sev_policy)
                          : platform.psp().launchStart(
                                mem, request.vm.sev_policy));
        for (const cache::TemplateRegion &r : t.plan) {
            SEVF_RETURN_IF_ERROR(mem.hostWrite(r.gpa, *r.plaintext));
            SEVF_RETURN_IF_ERROR(platform.psp().launchUpdateDataPremeasured(
                p.handle, mem, r.gpa, r.plaintext->size(), r.page_digests));
        }
        if (memory::hasEncryptedState(mem.sevMode())) {
            for (u32 cpu = 0; cpu < request.vm.vcpus; ++cpu) {
                SEVF_RETURN_IF_ERROR(platform.psp().launchUpdateVmsa(
                    p.handle, mem, cpu, layout::kVmsaGpa + cpu * kPageSize));
            }
        }
        SEVF_RETURN_IF_ERROR(platform.psp().launchFinish(p.handle));
        SEVF_ASSIGN_OR_RETURN(p.result.measurement,
                              platform.psp().launchMeasure(p.handle));
        // End-to-end integrity gate for the whole cache (template_io.h):
        // any corruption of plaintext or digests lands here.
        if (p.result.measurement != t.measurement) {
            return errInvalidState(
                "cached template replays to a different launch "
                "measurement");
        }
        // Verified equal to this launch's LAUNCH_MEASURE, so the guest
        // owner need not re-derive it from the plan.
        p.expected = t.measurement;
    }

    // Guest-produced state (verifier outputs, private component copies,
    // page tables) arrives as copy-on-write views of the template;
    // pages are re-encrypted under this VM's key only when touched.
    SEVF_RETURN_IF_ERROR(mem.instantiateSnapshot(t.snapshot));

    // Re-charge the cold boot's virtual-time step prefix verbatim: the
    // cache saves host wall-clock, never simulated guest time.
    for (const sim::Step &s : t.steps) {
        p.tb.replay(s);
    }

    p.result.pre_encrypted_bytes = t.pre_encrypted_bytes;
    p.result.verifier_stats.pages_validated = t.verifier.pages_validated;
    p.result.verifier_stats.bytes_copied = t.verifier.bytes_copied;
    p.result.verifier_stats.bytes_hashed = t.verifier.bytes_hashed;
    p.result.verifier_stats.pagetable_bytes = t.verifier.pagetable_bytes;
    return p;
}

// ===================================================================
// The guest tail
// ===================================================================

/**
 * The one guest tail, run from the template point by every launch, cold
 * or warm: Linux boot and init, then remote attestation for an SEV
 * guest whose kernel has networking (Lupine has none, §6.1). A failed
 * preparation passes its error through.
 */
Result<LaunchResult>
runGuestTail(Platform &platform, const LaunchRequest &request,
             Result<PreparedLaunch> prepared)
{
    SEVF_ASSIGN_OR_RETURN(PreparedLaunch p, std::move(prepared));
    const sim::CostModel &cost = platform.cost();
    const workload::KernelSpec &spec = workload::kernelSpec(request.kernel);
    memory::GuestMemory &mem = p.vm->memory();

    p.tb.cpu(cost.linuxBoot(spec.base_linux_boot, mem.sevMode()), kLinuxBoot,
             "linux_boot");
    p.tb.cpu(cost.initExec(), kLinuxBoot, "exec_init");

    if (request.attest && spec.has_network &&
        mem.sevMode() != memory::SevMode::kNone) {
        // The expected-measurement tool replays the data regions plus
        // the measured VMSAs for SEV-ES/SNP guests.
        std::optional<attest::VmsaInfo> vmsa;
        if (memory::hasEncryptedState(mem.sevMode())) {
            vmsa = attest::VmsaInfo{request.vm.vcpus, request.vm.sev_policy,
                                    layout::kVmsaGpa};
        }
        ByteVec secret = ownerSecret(request.seed);
        attest::GuestOwner owner(
            platform.keyServer(),
            p.expected ? *p.expected
                       : attest::expectedMeasurement(p.plan, vmsa),
            secret, request.seed ^ 0x0143);
        SEVF_ASSIGN_OR_RETURN(
            guest::AttestationOutcome outcome,
            runAttestationStage(platform, p.handle, mem, owner,
                                request.seed));
        p.tb.cpu(cost.attestGuest(), kAttestation, "guest_report_request");
        p.tb.psp(cost.pspReport(), kAttestation, "psp_report");
        p.tb.net(cost.attestNetwork(), kAttestation, "owner_round_trip");
        p.result.attested = true;
        p.result.provisioned_secret_bytes = outcome.secret_size;
    }

    if (p.result.cache_hit) {
        // Sampled here rather than inside GuestMemory: materialization
        // runs on TCB-reachable read paths, where the obs layer must not
        // be called (tools/tcb-baseline.json).
        obs::kCowPagesMaterialized.add(mem.cowMaterializedCount());
    }
    if (request.keep_vm) {
        p.result.vm = std::move(p.vm);
    }
    p.result.trace = p.tb.take();
    return std::move(p.result);
}

void
observeLaunchSim(const LaunchResult &result)
{
    obs::kLaunchSimNs.observe(static_cast<u64>(result.trace.total().ns()));
}

} // namespace

const char *
strategyName(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::kStockFirecracker: return "stock-firecracker";
      case StrategyKind::kQemuOvmfSev: return "qemu-ovmf-sev";
      case StrategyKind::kSevDirectBoot: return "sev-direct-boot";
      case StrategyKind::kSeveriFastBz: return "severifast-bzimage";
      case StrategyKind::kSeveriFastVmlinux: return "severifast-vmlinux";
    }
    return "unknown";
}

sim::Duration
LaunchResult::bootTime() const
{
    return trace.total() - trace.phaseTotal(sim::phase::kAttestation);
}

Status
checkLaunchRequest(const LaunchRequest &request)
{
    if (!(request.scale > 0.0 && request.scale <= 1.0)) {
        return errInvalidArgument(
            "launch request: scale must be in (0, 1], got " +
            std::to_string(request.scale));
    }
    if (request.vm.vcpus < 1 || request.vm.vcpus > vmm::kMaxMptableVcpus) {
        return errInvalidArgument(
            "launch request: vcpus must be in [1, " +
            std::to_string(vmm::kMaxMptableVcpus) + "], got " +
            std::to_string(request.vm.vcpus));
    }
    return Status::ok();
}

cache::LaunchKey
buildLaunchKey(const Platform &platform, const LaunchRequest &request,
               StrategyKind kind)
{
    cache::LaunchKeyBuilder kb;
    kb.addString("strategy", strategyName(kind));
    kb.addString("kernel", workload::kernelSpec(request.kernel).name);
    kb.addDouble("scale", request.scale);
    kb.addU64("sev_mode", static_cast<u64>(request.sev_mode));
    kb.addU64("memory_size", request.vm.memory_size);
    kb.addU64("vcpus", request.vm.vcpus);
    kb.addString("cmdline", request.vm.cmdline);
    kb.addBool("hugepages", request.vm.hugepages);
    kb.addU64("sev_policy", request.vm.sev_policy);
    kb.addBool("out_of_band_hashing", request.out_of_band_hashing);
    kb.addU64("kernel_codec", static_cast<u64>(request.kernel_codec));
    kb.addU64("initrd_codec", static_cast<u64>(request.initrd_codec));
    kb.addU64("verifier_size", request.verifier_size);
    kb.addBool("share_platform_key", request.share_platform_key);

    // Workload images by content: any byte change anywhere in a kernel
    // or initrd produces a different key.
    const workload::KernelArtifacts &art =
        workload::cachedKernelArtifacts(request.kernel, request.scale);
    kb.addDigest("vmlinux", cache::cachedContentDigest(art.vmlinux));
    kb.addDigest("bzimage", cache::cachedContentDigest(art.bzimage));
    kb.addDigest("initrd", cache::cachedContentDigest(
                               workload::cachedInitrd(request.scale)));

    // The cached trace stores concrete step durations, so every cost
    // parameter is key material. The assert pins the struct layout:
    // adding a parameter must revisit this function.
    static_assert(sizeof(sim::CostParams) == 42 * sizeof(double),
                  "CostParams changed: update buildLaunchKey");
    const sim::CostParams &p = platform.cost().params();
    kb.addBytes("cost_params",
                ByteSpan(reinterpret_cast<const u8 *>(&p), sizeof(p)));
    return kb.build();
}

Result<LaunchResult>
BootStrategy::launch(Platform &platform, const LaunchRequest &request) const
{
    // A bad request is refused before it touches any VM, cache or PSP
    // state.
    SEVF_RETURN_IF_ERROR(checkLaunchRequest(request));
    // RAII: the previous knob value is restored when the launch
    // returns, so nested strategy invocations compose. 0 means serial.
    base::ScopedHostThreads scope(request.host_threads);
    SEVF_SPAN("launch", "strategy", strategyName(kind_));
    obs::kLaunchTotal.add(strategyName(kind_));

    // Template-cache dispatch. KASLR launches draw per-launch entropy
    // by design and always boot cold.
    std::optional<cache::LaunchKey> key;
    bool claimed = false;
    if (request.use_template_cache && !request.guest_kaslr) {
        key = buildLaunchKey(platform, request, kind_);
        cache::TemplateCache::Lookup hit =
            platform.templateCache().beginLookup(*key);
        if (hit.tmpl != nullptr) {
            Result<LaunchResult> warm = runGuestTail(
                platform, request,
                restoreTemplate(platform, request, kind_, *hit.tmpl));
            if (warm.isOk()) {
                observeLaunchSim(*warm);
                return warm;
            }
            // The template failed to replay (stale or tampered entry,
            // or a transient fault that outlived the PSP retry
            // budget): treat it as poisoned — drop it and boot cold; a
            // later launch rebuilds. Never abort: the cold path
            // produces the authoritative measurement regardless.
            SEVF_SPAN("cache.poison_fallback", "strategy",
                      strategyName(kind_));
            warn("warm template replay failed (",
                 warm.status().toString(),
                 "); invalidating template and falling back to cold boot");
            platform.templateCache().invalidate(*key);
        }
        claimed = hit.claimed;
    }

    Result<PreparedLaunch> cold = prepare(platform, request, kind_);
    std::shared_ptr<const cache::LaunchTemplate> built;
    if (claimed && cold.isOk()) {
        built = captureTemplate(request, *cold);
    }
    Result<LaunchResult> result =
        runGuestTail(platform, request, std::move(cold));
    if (claimed) {
        // Published only when the whole launch, tail included,
        // succeeded; otherwise the claim is released for a later build.
        if (result.isOk() && built != nullptr) {
            platform.templateCache().publish(*key, std::move(built));
        } else {
            platform.templateCache().abandon(*key);
        }
    }
    if (result.isOk()) {
        observeLaunchSim(*result);
    }
    return result;
}

std::unique_ptr<BootStrategy>
makeStrategy(StrategyKind kind)
{
    return std::make_unique<BootStrategy>(kind);
}

} // namespace sevf::core
