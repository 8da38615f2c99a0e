#include "sim/cost_model.h"

#include "sim/trace.h"

#include <algorithm>

#include "base/types.h"

namespace sevf::sim {

double
mib(u64 bytes)
{
    return static_cast<double>(bytes) / static_cast<double>(kMiB);
}

Duration
CostModel::pspLaunchStart() const
{
    return Duration::fromMsF(p_.psp_launch_start_ms);
}

Duration
CostModel::pspLaunchStartShared() const
{
    return Duration::fromMsF(p_.psp_launch_start_shared_ms);
}

Duration
CostModel::pspLaunchUpdate(u64 bytes) const
{
    return Duration::fromMsF(p_.psp_launch_update_cmd_ms +
                             mib(bytes) * p_.psp_launch_update_per_mib_ms);
}

Duration
CostModel::pspLaunchUpdate(u64 bytes, memory::SevMode mode,
                           bool hugepages) const
{
    Duration base = pspLaunchUpdate(bytes);
    if (hugepages && mode != memory::SevMode::kSevSnp &&
        mode != memory::SevMode::kNone) {
        double per_byte =
            (base.toMsF() - p_.psp_launch_update_cmd_ms) *
            p_.psp_update_hugepage_speedup;
        return Duration::fromMsF(p_.psp_launch_update_cmd_ms + per_byte);
    }
    return base;
}

Duration
CostModel::pspLaunchFinish() const
{
    return Duration::fromMsF(p_.psp_launch_finish_ms);
}

Duration
CostModel::pspRmpInit() const
{
    return Duration::fromMsF(p_.psp_rmp_init_ms);
}

Duration
CostModel::pspReport() const
{
    return Duration::fromMsF(p_.psp_report_ms);
}

Duration
CostModel::qemuSessionPsp() const
{
    return Duration::fromMsF(p_.qemu_session_psp_ms);
}

Duration
CostModel::cpuCopy(u64 bytes) const
{
    return Duration::fromMsF(mib(bytes) * p_.cpu_copy_per_mib_ms);
}

Duration
CostModel::cpuSha256(u64 bytes) const
{
    return Duration::fromMsF(mib(bytes) * p_.cpu_sha256_per_mib_ms);
}

Duration
CostModel::lz4Decompress(u64 decompressed_bytes) const
{
    return Duration::fromMsF(mib(decompressed_bytes) *
                             p_.lz4_decompress_per_mib_ms);
}

Duration
CostModel::gzipDecompress(u64 decompressed_bytes) const
{
    return Duration::fromMsF(mib(decompressed_bytes) *
                             p_.gzip_decompress_per_mib_ms);
}

Duration
CostModel::decompressCost(compress::CodecKind kind,
                          u64 decompressed_bytes) const
{
    switch (kind) {
      case compress::CodecKind::kNone:
        return Duration::zero();
      case compress::CodecKind::kLz4:
        return lz4Decompress(decompressed_bytes);
      case compress::CodecKind::kGzipLite:
        return gzipDecompress(decompressed_bytes);
    }
    return Duration::zero();
}

Duration
CostModel::pvalidateSweep(u64 mem_bytes, bool hugepages) const
{
    if (hugepages) {
        u64 pages = pagesFor(mem_bytes, kHugePageSize);
        return Duration::fromMsF(static_cast<double>(pages) *
                                 p_.pvalidate_2m_us / 1000.0);
    }
    u64 pages = pagesFor(mem_bytes, kPageSize);
    return Duration::fromMsF(static_cast<double>(pages) *
                             p_.pvalidate_4k_us / 1000.0);
}

Duration
CostModel::pageTableInit() const
{
    return Duration::fromMsF(p_.pagetable_init_ms);
}

Duration
CostModel::verifierFixed() const
{
    return Duration::fromMsF(p_.verifier_fixed_ms);
}

Duration
CostModel::bootstrapFixed() const
{
    return Duration::fromMsF(p_.bootstrap_fixed_ms);
}

Duration
CostModel::fcProcessStart() const
{
    return Duration::fromMsF(p_.fc_process_start_ms);
}

Duration
CostModel::fcSetup() const
{
    return Duration::fromMsF(p_.fc_setup_ms);
}

Duration
CostModel::vmmLoad(u64 bytes) const
{
    return Duration::fromMsF(mib(bytes) * p_.vmm_load_per_mib_ms);
}

Duration
CostModel::vmmHash(u64 bytes) const
{
    return Duration::fromMsF(mib(bytes) * p_.vmm_hash_per_mib_ms);
}

Duration
CostModel::kvmSnpInit() const
{
    return Duration::fromMsF(p_.kvm_snp_init_ms);
}

Duration
CostModel::kvmPinPages(u64 guest_mem_bytes) const
{
    return Duration::fromMsF(mib(guest_mem_bytes) * p_.kvm_pin_per_mib_ms);
}

Duration
CostModel::qemuProcessStart() const
{
    return Duration::fromMsF(p_.qemu_process_start_ms);
}

Duration
CostModel::qemuSetup() const
{
    return Duration::fromMsF(p_.qemu_setup_ms);
}

Duration
CostModel::ovmfSec() const
{
    return Duration::fromMsF(p_.ovmf_sec_ms);
}

Duration
CostModel::ovmfPei() const
{
    return Duration::fromMsF(p_.ovmf_pei_ms);
}

Duration
CostModel::ovmfDxe() const
{
    return Duration::fromMsF(p_.ovmf_dxe_ms);
}

Duration
CostModel::ovmfBds() const
{
    return Duration::fromMsF(p_.ovmf_bds_ms);
}

Duration
CostModel::ovmfVerify(u64 bytes) const
{
    return Duration::fromMsF(mib(bytes) * p_.ovmf_verify_per_mib_ms);
}

Duration
CostModel::linuxBoot(Duration base_boot, bool snp) const
{
    if (!snp) {
        return base_boot;
    }
    return Duration::fromMsF(base_boot.toMsF() *
                                 p_.snp_linux_boot_multiplier +
                             p_.snp_guest_fixed_ms);
}

Duration
CostModel::linuxBoot(Duration base_boot, memory::SevMode mode) const
{
    switch (mode) {
      case memory::SevMode::kNone:
        return base_boot;
      case memory::SevMode::kSev:
        return Duration::fromMsF(base_boot.toMsF() *
                                     p_.sev_linux_boot_multiplier +
                                 p_.sev_guest_fixed_ms);
      case memory::SevMode::kSevEs:
        return Duration::fromMsF(base_boot.toMsF() *
                                     p_.sev_es_linux_boot_multiplier +
                                 p_.sev_es_guest_fixed_ms);
      case memory::SevMode::kSevSnp:
        return linuxBoot(base_boot, /*snp=*/true);
    }
    return base_boot;
}

Duration
CostModel::initExec() const
{
    return Duration::fromMsF(p_.init_exec_ms);
}

Duration
CostModel::attestNetwork() const
{
    return Duration::fromMsF(p_.attest_net_ms);
}

Duration
CostModel::attestGuest() const
{
    return Duration::fromMsF(p_.attest_guest_ms);
}

Duration
CostModel::jittered(Duration d, Rng *rng) const
{
    if (rng == nullptr || p_.jitter_frac <= 0.0) {
        return d;
    }
    double factor = 1.0 + p_.jitter_frac * rng->nextGaussian();
    // Clamp so pathological draws cannot produce negative durations.
    factor = std::max(0.5, std::min(1.5, factor));
    return Duration::fromSecF(d.toSecF() * factor);
}

BootTrace
jitterTrace(const BootTrace &nominal, const CostModel &model, Rng &rng)
{
    BootTrace out;
    for (const Step &step : nominal.steps()) {
        out.add(step.kind, model.jittered(step.duration, &rng), step.phase,
                step.label);
    }
    return out;
}

} // namespace sevf::sim
