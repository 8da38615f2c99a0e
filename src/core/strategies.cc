/**
 * @file
 * The five BootStrategy implementations (see core/launch.h). Each runs
 * the boot *functionally* - real bytes staged, measured, encrypted,
 * verified, decompressed, attested - while charging calibrated virtual
 * time into the BootTrace with the paper's phase labels.
 */
#include "core/launch.h"

#include <memory>

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
 * The bzImage bootstrap loader under its sim phase's wall span. Its
 * decompression area is a host buffer as large as guest RAM, on 2 MiB
 * pages (memory/dram.h), mapped lazily and freed when the loader
 * returns; the loader decodes into no more of it than the setup
 * header's init_size. Like the span, the area lives outside the root
 * of trust: memory/dram is banned from its closure.
 */
Result<guest::LoadedKernel>
runLoaderStage(memory::GuestMemory &mem, Gpa bzimage_gpa, u64 size,
               const guest::KaslrConfig &kaslr = {})
{
    SEVF_SPAN(kBootstrapLoader);
    memory::DramBuffer decode_area(mem.size());
    return guest::runBootstrapLoader(
        mem, bzimage_gpa, size, true,
        MutByteSpan(decode_area.data(), decode_area.size()), kaslr);
}

/**
 * Shared tail: guest Linux boot (+init) and optional remote
 * attestation, charged with the right phases.
 */
struct GuestBootTail {
    bool attested = false;
    u64 secret_bytes = 0;
};

Result<GuestBootTail>
runGuestTail(Platform &platform, const LaunchRequest &request,
             TraceBuilder &tb, memory::GuestMemory &mem,
             psp::GuestHandle handle,
             const std::vector<attest::PreEncryptedRegion> &plan,
             const std::optional<crypto::Sha256Digest> &expected =
                 std::nullopt)
{
    const sim::CostModel &cost = platform.cost();
    const workload::KernelSpec &spec = workload::kernelSpec(request.kernel);

    tb.cpu(cost.linuxBoot(spec.base_linux_boot, mem.sevMode()), kLinuxBoot,
           "linux_boot");
    tb.cpu(cost.initExec(), kLinuxBoot, "exec_init");

    GuestBootTail tail;
    if (!request.attest || !spec.has_network) {
        return tail;
    }

    // The expected-measurement tool replays the data regions plus the
    // measured VMSAs for SEV-ES/SNP guests.
    std::optional<attest::VmsaInfo> vmsa;
    if (memory::hasEncryptedState(mem.sevMode())) {
        vmsa = attest::VmsaInfo{request.vm.vcpus, request.vm.sev_policy,
                                layout::kVmsaGpa};
    }
    // Warm boots pass the template measurement (verified equal to this
    // launch's LAUNCH_MEASURE) instead of re-deriving it from the plan.
    ByteVec secret = ownerSecret(request.seed);
    attest::GuestOwner owner(platform.keyServer(),
                             expected ? *expected
                                      : attest::expectedMeasurement(plan,
                                                                    vmsa),
                             secret, request.seed ^ 0x0143);
    Result<guest::AttestationOutcome> outcome = guest::runAttestation(
        platform.psp(), handle, mem, kSecretGpa, owner,
        request.seed ^ 0x9e57);
    if (!outcome.isOk()) {
        return outcome.status();
    }
    tb.cpu(cost.attestGuest(), kAttestation, "guest_report_request");
    tb.psp(cost.pspReport(), kAttestation, "psp_report");
    tb.net(cost.attestNetwork(), kAttestation, "owner_round_trip");
    tail.attested = true;
    tail.secret_bytes = outcome->secret_size;
    return tail;
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

class StockFirecrackerStrategy final : public BootStrategy
{
  public:
    StrategyKind kind() const override
    {
        return StrategyKind::kStockFirecracker;
    }

    Result<LaunchResult>
    doLaunch(Platform &platform, const LaunchRequest &request) override
    {
        const sim::CostModel &cost = platform.cost();
        const workload::KernelSpec &spec =
            workload::kernelSpec(request.kernel);
        const workload::KernelArtifacts &art =
            workload::cachedKernelArtifacts(request.kernel, request.scale);
        const ByteVec &initrd = workload::cachedInitrd(request.scale);

        LaunchResult result;
        result.strategy = kind();
        TraceBuilder tb(result.timeline);

        tb.cpu(cost.fcProcessStart(), kVmm, "firecracker_start");
        auto vm_ptr = std::make_shared<vmm::MicroVm>(
            request.vm,
            platform.allocateSpaWindow(request.vm.memory_size),
            /*asid=*/0);
        vmm::MicroVm &vm = *vm_ptr;

        Result<vmm::DirectBootLoad> load =
            vm.directBoot(art.vmlinux, initrd);
        if (!load.isOk()) {
            return load.status();
        }
        tb.cpu(cost.vmmLoad(load->kernel_file_bytes + load->initrd_bytes +
                            load->structs.totalBytes()),
               kVmm, "load_kernel_and_initrd");
        tb.cpu(cost.fcSetup(), kVmm, "vm_setup");

        tb.cpu(cost.linuxBoot(spec.base_linux_boot, /*snp=*/false),
               kLinuxBoot, "linux_boot");
        tb.cpu(cost.initExec(), kLinuxBoot, "exec_init");

        // Non-SEV: nothing is measured, so the whole boot (tail
        // included) is template state.
        maybeCaptureTemplate(request, vm, tb, {}, result,
                             /*tail_in_steps=*/true);
        if (request.keep_vm) {
            result.vm = vm_ptr;
        }
        result.trace = tb.take();
        return result;
    }
};

// ===================================================================
// SEVeriFast (§4): minimal verifier + measured direct boot
// ===================================================================

class SeveriFastStrategy final : public BootStrategy
{
  public:
    explicit SeveriFastStrategy(bool bzimage) : bzimage_(bzimage) {}

    StrategyKind kind() const override
    {
        return bzimage_ ? StrategyKind::kSeveriFastBz
                        : StrategyKind::kSeveriFastVmlinux;
    }

    Result<LaunchResult>
    doLaunch(Platform &platform, const LaunchRequest &request) override
    {
        const sim::CostModel &cost = platform.cost();
        const workload::KernelArtifacts &art =
            workload::cachedKernelArtifacts(request.kernel, request.scale);
        const ByteVec &initrd_raw = workload::cachedInitrd(request.scale);

        // Kernel image per the requested format/codec (built offline).
        ByteVec kernel_storage;
        ByteSpan kernel_image;
        if (bzimage_) {
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

        const ByteVec &verifier_bin =
            request.verifier_size == 0
                ? verifier::verifierBinary()
                : bloated_cache_.emplace_back(verifier::bloatedVerifierBinary(
                      request.verifier_size));

        LaunchResult result;
        result.strategy = kind();
        TraceBuilder tb(result.timeline);

        // ---- VMM side ----
        tb.cpu(cost.fcProcessStart(), kVmm, "firecracker_start");
        tb.cpu(cost.kvmSnpInit(), kVmm, "kvm_snp_init");
        auto vm_ptr = std::make_shared<vmm::MicroVm>(
            request.vm,
            platform.allocateSpaWindow(request.vm.memory_size),
            platform.psp().allocateAsid(), request.sev_mode);
        vmm::MicroVm &vm = *vm_ptr;

        // Stage components into shared windows (Fig 2 step 3).
        if (bzimage_) {
            Result<vmm::StagedComponents> staged =
                vm.stageMeasuredComponents(kernel_image, staged_initrd);
            if (!staged.isOk()) {
                return staged.status();
            }
        } else {
            vmm::FwCfg fw(vm.memory(), layout::kKernelStagingGpa,
                          layout::kInitrdStagingGpa -
                              layout::kKernelStagingGpa);
            SEVF_RETURN_IF_ERROR(stageVmlinuxViaFwCfg(fw, kernel_image));
            SEVF_RETURN_IF_ERROR(vm.memory().hostWrite(
                layout::kInitrdStagingGpa, staged_initrd));
        }
        tb.cpu(cost.vmmLoad(kernel_image.size() + staged_initrd.size()),
               kVmm, "stage_components");

        // Boot structures (Fig 7 pre-encrypt set).
        const Gpa initrd_final =
            request.initrd_codec == compress::CodecKind::kNone
                ? layout::kInitrdPrivateGpa
                : layout::kInitrdDecompressedGpa;
        Result<vmm::BootStructs> structs =
            vm.stageBootStructs(initrd_final, initrd_raw.size(), 0);
        if (!structs.isOk()) {
            return structs.status();
        }
        tb.cpu(cost.fcSetup(), kVmm, "vm_setup");

        // Component hashes: out-of-band by default (§4.3); otherwise
        // charge the in-VMM hashing the paper eliminates.
        verifier::BootHashes hashes;
        if (bzimage_) {
            hashes.kernel = componentDigest(kernel_image, art.bzimage);
        } else {
            Result<crypto::Sha256Digest> kd =
                verifier::vmlinuxStreamDigest(kernel_image);
            if (!kd.isOk()) {
                return kd.status();
            }
            hashes.kernel = *kd;
        }
        hashes.kernel_size = kernel_image.size();
        hashes.initrd = componentDigest(staged_initrd, initrd_raw);
        hashes.initrd_size = staged_initrd.size();
        if (!request.out_of_band_hashing) {
            tb.cpu(cost.vmmHash(kernel_image.size() + staged_initrd.size()),
                   kVmm, "hash_components_in_vmm");
        }

        Result<std::vector<attest::PreEncryptedRegion>> plan =
            vm.buildPreEncryptionPlan(verifier_bin, hashes, *structs);
        if (!plan.isOk()) {
            return plan.status();
        }
        result.pre_encrypted_bytes = attest::totalPreEncryptedBytes(*plan);

        Result<psp::GuestHandle> handle =
            runLaunchFlow(platform, tb, vm, *plan, request);
        if (!handle.isOk()) {
            return handle.status();
        }
        result.measurement = *platform.psp().launchMeasure(*handle);

        // ---- Boot verifier (in-guest) ----
        verifier::VerifierInputs inputs;
        inputs.kernel_staging = layout::kKernelStagingGpa;
        inputs.initrd_staging = layout::kInitrdStagingGpa;
        inputs.hash_table_gpa = layout::kHashTableGpa;
        inputs.kernel_private = layout::kBzImagePrivateGpa;
        inputs.initrd_private = layout::kInitrdPrivateGpa;
        inputs.page_table_root = layout::kPageTableGpa;
        inputs.kernel_kind = bzimage_
                                 ? verifier::KernelImageKind::kBzImage
                                 : verifier::KernelImageKind::kVmlinux;
        inputs.hugepages = request.vm.hugepages;
        inputs.keep_shared = {
            {layout::kKernelStagingGpa, kernel_image.size()},
            {layout::kInitrdStagingGpa, staged_initrd.size()},
        };

        Result<verifier::VerifiedBoot> boot =
            runVerifierStage(vm.memory(), inputs);
        if (!boot.isOk()) {
            return boot.status();
        }
        result.verifier_stats = boot->stats;

        tb.cpu(cost.pvalidateSweep(boot->stats.pages_validated * kPageSize,
                                   request.vm.hugepages),
               kBootVerification, "pvalidate_sweep");
        tb.cpu(cost.pageTableInit(), kBootVerification, "init_page_tables");
        tb.cpu(cost.cpuCopy(boot->stats.bytes_copied), kBootVerification,
               "copy_to_private");
        tb.cpu(cost.cpuSha256(boot->stats.bytes_hashed), kBootVerification,
               "rehash_components");
        tb.cpu(cost.verifierFixed(), kBootVerification, "verify_digests");

        // ---- Bootstrap loader (bzImage path only, §4.4) ----
        if (bzimage_) {
            guest::KaslrConfig kaslr;
            if (request.guest_kaslr) {
                kaslr.enabled = true;
                kaslr.seed = request.seed ^ 0x4a514c; // in-guest RDRAND
                // Keep the slid kernel clear of the private bzImage
                // region that starts at 80 MiB.
                u64 load_end =
                    layout::kKernelLoadGpa +
                    workload::kernelSpec(request.kernel).vmlinux_size +
                    2 * kMiB;
                kaslr.max_slide =
                    load_end < layout::kBzImagePrivateGpa
                        ? alignDown(layout::kBzImagePrivateGpa - load_end,
                                    kHugePageSize)
                        : 0;
            }
            Result<guest::LoadedKernel> loaded = runLoaderStage(
                vm.memory(), boot->kernel_gpa, boot->kernel_size, kaslr);
            if (!loaded.isOk()) {
                return loaded.status();
            }
            result.kaslr_slide = loaded->kaslr_slide;
            tb.cpu(cost.bootstrapFixed(), kBootstrapLoader,
                   "bootstrap_entry");
            tb.cpu(cost.decompressCost(loaded->codec,
                                       loaded->decompressed_bytes),
                   kBootstrapLoader, "decompress_kernel");
        }

        // Compressed-initrd variant: the guest must inflate it before
        // unpacking the CPIO (the Fig 5 "leave it uncompressed" lesson).
        if (request.initrd_codec != compress::CodecKind::kNone) {
            Result<ByteVec> packed = vm.memory().guestRead(
                layout::kInitrdPrivateGpa, staged_initrd.size(), true);
            if (!packed.isOk()) {
                return packed.status();
            }
            Result<ByteVec> inflated =
                compress::codecFor(request.initrd_codec).decompress(*packed);
            if (!inflated.isOk()) {
                return inflated.status();
            }
            SEVF_RETURN_IF_ERROR(vm.memory().guestWrite(
                layout::kInitrdDecompressedGpa, *inflated, true));
            tb.cpu(cost.decompressCost(request.initrd_codec,
                                       inflated->size()),
                   kBootstrapLoader, "decompress_initrd");
        }

        maybeCaptureTemplate(request, vm, tb, *plan, result,
                             /*tail_in_steps=*/false);
        Result<GuestBootTail> tail = runGuestTail(platform, request, tb,
                                                  vm.memory(), *handle,
                                                  *plan);
        if (!tail.isOk()) {
            return tail.status();
        }
        result.attested = tail->attested;
        result.provisioned_secret_bytes = tail->secret_bytes;
        if (request.keep_vm) {
            result.vm = vm_ptr;
        }
        result.trace = tb.take();
        return result;
    }

  private:
    bool bzimage_;
    std::vector<ByteVec> bloated_cache_;
};

// ===================================================================
// QEMU/OVMF SEV (§2.5 state of the art, the Fig 3/9/10 baseline)
// ===================================================================

class QemuOvmfStrategy final : public BootStrategy
{
  public:
    StrategyKind kind() const override { return StrategyKind::kQemuOvmfSev; }

    Result<LaunchResult>
    doLaunch(Platform &platform, const LaunchRequest &request) override
    {
        const sim::CostModel &cost = platform.cost();
        const workload::KernelArtifacts &art =
            workload::cachedKernelArtifacts(request.kernel, request.scale);
        const ByteVec &initrd = workload::cachedInitrd(request.scale);
        const ByteVec ovmf = firmware::ovmfImage(cost);

        LaunchResult result;
        result.strategy = kind();
        TraceBuilder tb(result.timeline);

        // ---- QEMU side ----
        tb.cpu(cost.qemuProcessStart(), kVmm, "qemu_start");
        tb.cpu(cost.qemuSetup(), kVmm, "machine_setup");
        auto vm_ptr = std::make_shared<vmm::MicroVm>(
            request.vm,
            platform.allocateSpaWindow(request.vm.memory_size),
            platform.psp().allocateAsid(), request.sev_mode);
        vmm::MicroVm &vm = *vm_ptr;

        SEVF_RETURN_IF_ERROR(
            vm.memory().hostWrite(firmware::kOvmfBaseGpa, ovmf));
        Result<vmm::StagedComponents> staged =
            vm.stageMeasuredComponents(art.bzimage, initrd);
        if (!staged.isOk()) {
            return staged.status();
        }
        ByteVec cmdline_z = toBytes(request.vm.cmdline);
        cmdline_z.push_back(0);
        SEVF_RETURN_IF_ERROR(
            vm.memory().hostWrite(layout::kCmdlineStagingGpa, cmdline_z));
        tb.cpu(cost.vmmLoad(ovmf.size() + art.bzimage.size() +
                            initrd.size()),
               kVmm, "load_firmware_and_components");

        // QEMU hashes all three components in the VMM, on the critical
        // path (no out-of-band option upstream, §4.3).
        verifier::BootHashes hashes = verifier::BootHashes::compute(
            art.bzimage, initrd, asBytes(request.vm.cmdline));
        tb.cpu(cost.vmmHash(art.bzimage.size() + initrd.size() +
                            request.vm.cmdline.size()),
               kVmm, "hash_components_in_vmm");

        // Pre-encryption plan: the entire OVMF volume + the hash page.
        std::vector<attest::PreEncryptedRegion> plan;
        plan.push_back({"ovmf", firmware::kOvmfBaseGpa, ovmf});
        ByteVec hash_page = hashes.toPage();
        SEVF_RETURN_IF_ERROR(
            vm.memory().hostWrite(layout::kHashTableGpa, hash_page));
        plan.push_back({"component_hashes", layout::kHashTableGpa,
                        std::move(hash_page)});
        result.pre_encrypted_bytes = attest::totalPreEncryptedBytes(plan);

        Result<psp::GuestHandle> handle =
            runLaunchFlow(platform, tb, vm, plan, request);
        if (!handle.isOk()) {
            return handle.status();
        }
        // The QEMU flow issues extra session/VMSA commands (Fig 10's
        // 287.8 ms pre-encryption vs the raw 1 MiB cost).
        tb.psp(cost.qemuSessionPsp(), kPreEncryption, "sev_session_vmsa");
        result.measurement = *platform.psp().launchMeasure(*handle);

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
        Result<verifier::VerifiedBoot> boot =
            runVerifierStage(vm.memory(), inputs);
        if (!boot.isOk()) {
            return boot.status();
        }
        result.verifier_stats = boot->stats;
        // EDKII copy+hash runs slower than the SEVeriFast verifier.
        tb.cpu(cost.ovmfVerify(boot->stats.bytes_hashed),
               kBootVerification, "ovmf_verify_components");

        // ---- Bootstrap loader + kernel ----
        Result<guest::LoadedKernel> loaded =
            runLoaderStage(vm.memory(), boot->kernel_gpa, boot->kernel_size);
        if (!loaded.isOk()) {
            return loaded.status();
        }
        tb.cpu(cost.bootstrapFixed(), kBootstrapLoader, "bootstrap_entry");
        tb.cpu(cost.lz4Decompress(loaded->decompressed_bytes),
               kBootstrapLoader, "decompress_kernel");

        maybeCaptureTemplate(request, vm, tb, plan, result,
                             /*tail_in_steps=*/false);
        Result<GuestBootTail> tail = runGuestTail(platform, request, tb,
                                                  vm.memory(), *handle,
                                                  plan);
        if (!tail.isOk()) {
            return tail.status();
        }
        result.attested = tail->attested;
        result.provisioned_secret_bytes = tail->secret_bytes;
        if (request.keep_vm) {
            result.vm = vm_ptr;
        }
        result.trace = tb.take();
        return result;
    }
};

// ===================================================================
// SEV direct boot (§3.2 strawman: pre-encrypt the kernel itself)
// ===================================================================

class SevDirectBootStrategy final : public BootStrategy
{
  public:
    StrategyKind kind() const override
    {
        return StrategyKind::kSevDirectBoot;
    }

    Result<LaunchResult>
    doLaunch(Platform &platform, const LaunchRequest &request) override
    {
        const sim::CostModel &cost = platform.cost();
        const workload::KernelArtifacts &art =
            workload::cachedKernelArtifacts(request.kernel, request.scale);
        const ByteVec &initrd_raw = workload::cachedInitrd(request.scale);
        const bool bzimage =
            request.kernel_codec != compress::CodecKind::kNone;

        ByteVec initrd_storage;
        ByteSpan initrd = initrd_raw;
        if (request.initrd_codec != compress::CodecKind::kNone) {
            initrd_storage =
                compress::codecFor(request.initrd_codec).compress(initrd_raw);
            initrd = initrd_storage;
        }

        LaunchResult result;
        result.strategy = kind();
        TraceBuilder tb(result.timeline);

        tb.cpu(cost.fcProcessStart(), kVmm, "firecracker_start");
        tb.cpu(cost.kvmSnpInit(), kVmm, "kvm_snp_init");
        auto vm_ptr = std::make_shared<vmm::MicroVm>(
            request.vm,
            platform.allocateSpaWindow(request.vm.memory_size),
            platform.psp().allocateAsid(), request.sev_mode);
        vmm::MicroVm &vm = *vm_ptr;

        // Place components where they run, then pre-encrypt EVERYTHING:
        // kernel, initrd, structs - the §3.2 anti-pattern.
        std::vector<attest::PreEncryptedRegion> plan;
        u64 kernel_entry = 0;
        u64 staged_bytes = 0;
        if (bzimage) {
            SEVF_RETURN_IF_ERROR(vm.memory().hostWrite(
                layout::kBzImagePrivateGpa, art.bzimage));
            plan.push_back({"bzimage", layout::kBzImagePrivateGpa,
                            art.bzimage});
            staged_bytes += art.bzimage.size();
        } else {
            Result<image::ElfView> elf = image::parseElfView(art.vmlinux);
            if (!elf.isOk()) {
                return elf.status();
            }
            kernel_entry = elf->entry;
            for (std::size_t i = 0; i < elf->segments.size(); ++i) {
                const image::ElfSegmentView &seg = elf->segments[i];
                SEVF_RETURN_IF_ERROR(
                    vm.memory().hostWrite(seg.vaddr, seg.data));
                plan.push_back({"kernel_seg" + std::to_string(i),
                                seg.vaddr,
                                ByteVec(seg.data.begin(), seg.data.end())});
                staged_bytes += seg.data.size();
            }
        }
        SEVF_RETURN_IF_ERROR(
            vm.memory().hostWrite(layout::kInitrdPrivateGpa, initrd));
        plan.push_back({"initrd", layout::kInitrdPrivateGpa,
                        ByteVec(initrd.begin(), initrd.end())});
        staged_bytes += initrd.size();

        Result<vmm::BootStructs> structs = vm.stageBootStructs(
            layout::kInitrdPrivateGpa, initrd.size(), kernel_entry);
        if (!structs.isOk()) {
            return structs.status();
        }
        for (const auto &[name, gpa, size] :
             {std::tuple<const char *, Gpa, u64>{
                  "mptable", structs->mptable_gpa, structs->mptable_size},
              {"boot_params", structs->boot_params_gpa,
               structs->boot_params_size},
              {"cmdline", structs->cmdline_gpa, structs->cmdline_size}}) {
            Result<ByteVec> bytes = vm.memory().hostRead(gpa, size);
            if (!bytes.isOk()) {
                return bytes.status();
            }
            plan.push_back({name, gpa, bytes.take()});
        }
        tb.cpu(cost.vmmLoad(staged_bytes), kVmm, "load_components");
        tb.cpu(cost.fcSetup(), kVmm, "vm_setup");

        result.pre_encrypted_bytes = attest::totalPreEncryptedBytes(plan);
        Result<psp::GuestHandle> handle =
            runLaunchFlow(platform, tb, vm, plan, request);
        if (!handle.isOk()) {
            return handle.status();
        }
        result.measurement = *platform.psp().launchMeasure(*handle);

        // ---- Guest: claim memory (SNP), maybe decompress, boot ----
        if (vm.memory().integrityEnforced()) {
            SEVF_RETURN_IF_ERROR(claimRemainingPages(vm.memory()));
            tb.cpu(cost.pvalidateSweep(vm.memory().size(),
                                       request.vm.hugepages),
                   kBootVerification, "pvalidate_sweep");
        }

        if (bzimage) {
            Result<guest::LoadedKernel> loaded = runLoaderStage(
                vm.memory(), layout::kBzImagePrivateGpa, art.bzimage.size());
            if (!loaded.isOk()) {
                return loaded.status();
            }
            tb.cpu(cost.bootstrapFixed(), kBootstrapLoader,
                   "bootstrap_entry");
            tb.cpu(cost.decompressCost(loaded->codec,
                                       loaded->decompressed_bytes),
                   kBootstrapLoader, "decompress_kernel");
        }

        maybeCaptureTemplate(request, vm, tb, plan, result,
                             /*tail_in_steps=*/false);
        Result<GuestBootTail> tail = runGuestTail(platform, request, tb,
                                                  vm.memory(), *handle,
                                                  plan);
        if (!tail.isOk()) {
            return tail.status();
        }
        result.attested = tail->attested;
        result.provisioned_secret_bytes = tail->secret_bytes;
        if (request.keep_vm) {
            result.vm = vm_ptr;
        }
        result.trace = tb.take();
        return result;
    }
};

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

namespace {

void
observeLaunchSim(const LaunchResult &result)
{
    obs::kLaunchSimNs.observe(static_cast<u64>(result.trace.total().ns()));
}

} // namespace

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

void
BootStrategy::maybeCaptureTemplate(
    const LaunchRequest &request, vmm::MicroVm &vm, const TraceBuilder &tb,
    const std::vector<attest::PreEncryptedRegion> &plan,
    const LaunchResult &result, bool tail_in_steps)
{
    if (!claim_.armed) {
        return;
    }
    SEVF_SPAN("cache.capture", "strategy", strategyName(kind()));

    // The warm path regenerates the plan regions (premeasured launch
    // flow) and the VMSAs (live LAUNCH_UPDATE_VMSA) itself, so both are
    // excluded from the memory snapshot.
    std::vector<memory::GpaRange> exclude;
    for (const attest::PreEncryptedRegion &r : plan) {
        exclude.push_back({alignDown(r.gpa, kPageSize),
                           alignUp(r.gpa + r.bytes.size(), kPageSize)});
    }
    if (memory::hasEncryptedState(vm.memory().sevMode())) {
        exclude.push_back({layout::kVmsaGpa,
                           layout::kVmsaGpa +
                               u64{request.vm.vcpus} * kPageSize});
    }
    Result<memory::MemorySnapshot> snap =
        vm.memory().captureSnapshot(exclude);
    if (!snap.isOk()) {
        // Refusing to cache (e.g. secret-labelled pages) is always
        // safe: this and future launches simply stay cold.
        return;
    }

    auto t = std::make_shared<cache::LaunchTemplate>();
    for (const attest::PreEncryptedRegion &r : plan) {
        cache::TemplateRegion region;
        region.name = r.name;
        region.gpa = r.gpa;
        region.page_digests = crypto::pageContentDigests(r.bytes);
        region.plaintext = std::make_shared<const ByteVec>(r.bytes);
        t->plan.push_back(std::move(region));
    }
    t->snapshot = snap.take();
    t->steps = tb.trace().steps();
    t->tail_in_steps = tail_in_steps;
    t->measurement = result.measurement;
    t->pre_encrypted_bytes = result.pre_encrypted_bytes;
    t->verifier.pages_validated = result.verifier_stats.pages_validated;
    t->verifier.bytes_copied = result.verifier_stats.bytes_copied;
    t->verifier.bytes_hashed = result.verifier_stats.bytes_hashed;
    t->verifier.pagetable_bytes = result.verifier_stats.pagetable_bytes;
    claim_.built = std::move(t);
}

Result<LaunchResult>
BootStrategy::launchFromTemplate(Platform &platform,
                                 const LaunchRequest &request,
                                 const cache::LaunchTemplate &t)
{
    SEVF_SPAN("launch_from_template", "strategy", strategyName(kind()));
    LaunchResult result;
    result.strategy = kind();
    result.cache_hit = true;
    TraceBuilder tb(result.timeline);

    const bool sev = kind() != StrategyKind::kStockFirecracker;
    auto vm_ptr =
        sev ? std::make_shared<vmm::MicroVm>(
                  request.vm,
                  platform.allocateSpaWindow(request.vm.memory_size),
                  platform.psp().allocateAsid(), request.sev_mode)
            : std::make_shared<vmm::MicroVm>(
                  request.vm,
                  platform.allocateSpaWindow(request.vm.memory_size),
                  /*asid=*/0);
    vmm::MicroVm &vm = *vm_ptr;
    // A restore writes a few scattered pages: keep them 4 KiB, since
    // each touch of a 2 MiB page would fault in a whole huge page.
    vm.memory().useSmallPages();
    if (vm.memory().size() != t.snapshot.memory_size) {
        return errInvalidState(
            "cached template does not match the VM memory size");
    }

    psp::GuestHandle handle = 0;
    if (sev) {
        // The real PSP launch flow, but with the measurement chain
        // extended from the cached per-page digests instead of
        // re-hashing the plan: the plaintext is re-encrypted under THIS
        // VM's key (ciphertexts are per-VM; digests are not).
        Result<psp::GuestHandle> started =
            request.share_platform_key
                ? platform.psp().launchStartShared(vm.memory(),
                                                   request.vm.sev_policy)
                : platform.psp().launchStart(vm.memory(),
                                             request.vm.sev_policy);
        if (!started.isOk()) {
            return started.status();
        }
        handle = *started;
        for (const cache::TemplateRegion &r : t.plan) {
            SEVF_RETURN_IF_ERROR(
                vm.memory().hostWrite(r.gpa, *r.plaintext));
            SEVF_RETURN_IF_ERROR(
                platform.psp().launchUpdateDataPremeasured(
                    handle, vm.memory(), r.gpa, r.plaintext->size(),
                    r.page_digests));
        }
        if (memory::hasEncryptedState(vm.memory().sevMode())) {
            for (u32 cpu = 0; cpu < request.vm.vcpus; ++cpu) {
                SEVF_RETURN_IF_ERROR(platform.psp().launchUpdateVmsa(
                    handle, vm.memory(), cpu,
                    layout::kVmsaGpa + cpu * kPageSize));
            }
        }
        SEVF_RETURN_IF_ERROR(platform.psp().launchFinish(handle));
        Result<crypto::Sha256Digest> measured =
            platform.psp().launchMeasure(handle);
        if (!measured.isOk()) {
            return measured.status();
        }
        result.measurement = *measured;
        // End-to-end integrity gate for the whole cache (template_io.h):
        // any corruption of plaintext or digests lands here.
        if (result.measurement != t.measurement) {
            return errInvalidState(
                "cached template replays to a different launch "
                "measurement");
        }
    }

    // Guest-produced state (verifier outputs, private component copies,
    // page tables) arrives as copy-on-write views of the template;
    // pages are re-encrypted under this VM's key only when touched.
    SEVF_RETURN_IF_ERROR(vm.memory().instantiateSnapshot(t.snapshot));

    // Re-charge the cold boot's virtual-time step prefix verbatim: the
    // cache saves host wall-clock, never simulated guest time.
    for (const sim::Step &s : t.steps) {
        tb.replay(s);
    }

    if (!t.tail_in_steps) {
        Result<GuestBootTail> tail =
            runGuestTail(platform, request, tb, vm.memory(), handle, {},
                         t.measurement);
        if (!tail.isOk()) {
            return tail.status();
        }
        result.attested = tail->attested;
        result.provisioned_secret_bytes = tail->secret_bytes;
    }

    result.pre_encrypted_bytes = t.pre_encrypted_bytes;
    result.verifier_stats.pages_validated = t.verifier.pages_validated;
    result.verifier_stats.bytes_copied = t.verifier.bytes_copied;
    result.verifier_stats.bytes_hashed = t.verifier.bytes_hashed;
    result.verifier_stats.pagetable_bytes = t.verifier.pagetable_bytes;
    // Sampled here rather than inside GuestMemory: materialization runs
    // on TCB-reachable read paths, where the obs layer must not be
    // called (tools/tcb-baseline.json).
    obs::kCowPagesMaterialized.add(vm.memory().cowMaterializedCount());
    if (request.keep_vm) {
        result.vm = vm_ptr;
    }
    result.trace = tb.take();
    return result;
}

Result<LaunchResult>
BootStrategy::launch(Platform &platform, const LaunchRequest &request)
{
    // RAII: the previous knob value is restored when the launch
    // returns, so nested strategy invocations compose. 0 means serial.
    base::ScopedHostThreads scope(request.host_threads);
    SEVF_SPAN("launch", "strategy", strategyName(kind()));
    obs::kLaunchTotal.add(strategyName(kind()));

    // Template-cache dispatch. KASLR launches draw per-launch entropy
    // by design and always boot cold.
    claim_ = TemplateClaim{};
    std::optional<cache::LaunchKey> key;
    if (request.use_template_cache && !request.guest_kaslr) {
        key = buildLaunchKey(platform, request, kind());
        cache::TemplateCache::Lookup hit =
            platform.templateCache().beginLookup(*key);
        if (hit.tmpl != nullptr) {
            Result<LaunchResult> warm =
                launchFromTemplate(platform, request, *hit.tmpl);
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
                      strategyName(kind()));
            warn("warm template replay failed (",
                 warm.status().toString(),
                 "); invalidating template and falling back to cold boot");
            platform.templateCache().invalidate(*key);
        } else if (hit.claimed) {
            claim_.armed = true;
        }
    }

    Result<LaunchResult> result = doLaunch(platform, request);
    if (claim_.armed) {
        if (result.isOk() && claim_.built != nullptr) {
            platform.templateCache().publish(*key, claim_.built);
        } else {
            platform.templateCache().abandon(*key);
        }
        claim_ = TemplateClaim{};
    }
    if (result.isOk()) {
        observeLaunchSim(*result);
    }
    return result;
}

std::unique_ptr<BootStrategy>
makeStrategy(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::kStockFirecracker:
        return std::make_unique<StockFirecrackerStrategy>();
      case StrategyKind::kQemuOvmfSev:
        return std::make_unique<QemuOvmfStrategy>();
      case StrategyKind::kSevDirectBoot:
        return std::make_unique<SevDirectBootStrategy>();
      case StrategyKind::kSeveriFastBz:
        return std::make_unique<SeveriFastStrategy>(/*bzimage=*/true);
      case StrategyKind::kSeveriFastVmlinux:
        return std::make_unique<SeveriFastStrategy>(/*bzimage=*/false);
    }
    panic("unknown strategy kind");
}

} // namespace sevf::core
