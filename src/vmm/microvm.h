/**
 * @file
 * The microVM monitor - our Firecracker stand-in (§5).
 *
 * Owns guest memory, builds the boot data structures (mptable,
 * boot_params, cmdline), and implements the two host-side load paths:
 * classic direct boot (stock Firecracker: ELF segments placed,
 * structures generated, enter at the 64-bit entry point, §2.1) and
 * measured-direct-boot staging for the SEV paths (components into
 * shared windows, Fig 2 step 3). SEV launch policy lives in core/ (the
 * BootStrategy implementations); this class is the mechanism they
 * drive.
 */
#ifndef SEVF_VMM_MICROVM_H_
#define SEVF_VMM_MICROVM_H_

#include <memory>

#include "attest/expected_measurement.h"
#include "base/status.h"
#include "memory/guest_memory.h"
#include "verifier/boot_hashes.h"
#include "vmm/vm_config.h"

namespace sevf::vmm {

/** Locations of the generated boot data structures (Fig 7 rows). */
struct BootStructs {
    Gpa mptable_gpa = 0;
    u64 mptable_size = 0;
    Gpa boot_params_gpa = 0;
    u64 boot_params_size = 0;
    Gpa cmdline_gpa = 0;
    u64 cmdline_size = 0;

    u64 totalBytes() const
    {
        return mptable_size + boot_params_size + cmdline_size;
    }
};

/** Result of a stock direct boot load. */
struct DirectBootLoad {
    u64 entry = 0;
    u64 kernel_file_bytes = 0; //!< bytes the VMM read+placed
    u64 initrd_bytes = 0;
    BootStructs structs;
};

/** Where measured-direct-boot components were staged (shared pages). */
struct StagedComponents {
    Gpa kernel_gpa = 0;
    u64 kernel_size = 0;
    Gpa initrd_gpa = 0;
    u64 initrd_size = 0;
};

class MicroVm
{
  public:
    /**
     * Construction (guest DRAM mapping, RMP and taint shadow) runs under
     * the `vmm.create` wall span, destruction under `vmm.destroy`.
     *
     * @param config machine shape
     * @param spa_base this VM's system-physical window (distinct per VM)
     * @param asid SEV ASID (0 for a non-SEV guest)
     * @param mode SEV generation (ignored when asid == 0)
     */
    MicroVm(VmConfig config, Spa spa_base, u32 asid,
            memory::SevMode mode = memory::SevMode::kSevSnp);
    ~MicroVm();

    MicroVm(const MicroVm &) = delete;
    MicroVm &operator=(const MicroVm &) = delete;

    memory::GuestMemory &memory() { return *memory_; }
    const VmConfig &config() const { return config_; }

    /**
     * Stock Firecracker path: parse the vmlinux host-side, place every
     * PT_LOAD segment at its run address, load the initrd high, build
     * and place boot structures, and return the 64-bit entry point -
     * the three §2.1 steps modern VMMs do on the guest's behalf.
     */
    Result<DirectBootLoad> directBoot(ByteSpan vmlinux, ByteSpan initrd);

    /**
     * Build the boot structures and stage them (plaintext). On the SEV
     * path the caller pre-encrypts them via LAUNCH_UPDATE_DATA.
     */
    Result<BootStructs> stageBootStructs(Gpa initrd_gpa, u64 initrd_size,
                                         u64 kernel_entry);

    /**
     * Measured direct boot staging: kernel image + initrd into the
     * shared windows (Fig 2 step 3).
     */
    Result<StagedComponents> stageMeasuredComponents(ByteSpan kernel_image,
                                                     ByteSpan initrd);

    /**
     * Assemble the SEVeriFast pre-encryption plan (§4.2): boot
     * verifier, hash-table page, mptable, boot_params, cmdline - in
     * launch order. The same vector feeds LAUNCH_UPDATE_DATA and the
     * guest owner's expected-measurement tool.
     */
    Result<std::vector<attest::PreEncryptedRegion>> buildPreEncryptionPlan(
        ByteSpan verifier_binary, const verifier::BootHashes &hashes,
        const BootStructs &structs);

  private:
    VmConfig config_;
    std::unique_ptr<memory::GuestMemory> memory_;
};

} // namespace sevf::vmm

#endif // SEVF_VMM_MICROVM_H_
