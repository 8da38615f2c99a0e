/**
 * @file
 * Every calibrated timing constant in the simulation, in one place.
 *
 * Each constant is annotated with the paper measurement it is fit to
 * (EPYC 7313P @ 3.0 GHz, 128 GB DDR4-3200, Linux 6.1-rc4 host, §6.1).
 * The calibration tests (tests/calibration_test.cc) assert that the model
 * composed from these constants lands on the paper's headline numbers
 * within tolerance, so refitting a constant that breaks a figure fails CI.
 */
#ifndef SEVF_SIM_COST_PARAMS_H_
#define SEVF_SIM_COST_PARAMS_H_

namespace sevf::sim {

/**
 * Calibrated cost constants. All *_ms fields are milliseconds of virtual
 * time; *_per_mib fields are per 2^20 bytes.
 */
struct CostParams {
    // ---- PSP (Platform Security Processor) -------------------------------
    // The PSP is a single low-powered ARM core; every constant here is
    // charged to the shared PSP FIFO resource (Fig 12 bottleneck).

    /** SNP_LAUNCH_START: guest context creation + VEK generation +
     *  activation. Sits in the VMM segment of the breakdowns. Together
     *  with rmp_init/updates/finish this sets the PSP occupancy per
     *  launch (~32 ms), which is the Fig 12 slope. */
    double psp_launch_start_ms = 14.0;

    /** LAUNCH_START with a shared platform key (future-work extension,
     *  §6.2): context creation without VEK generation. */
    double psp_launch_start_shared_ms = 2.5;

    /** LAUNCH_UPDATE_DATA hash+encrypt throughput. Fig 4 slope: 23 MiB
     *  vmlinux => 5.65 s, 12 MiB initrd => 2.85 s, 3.3 MiB bzImage =>
     *  840 ms, 1 MiB OVMF => 256.65 ms; fit ~= 245 ms/MiB (~4.1 MiB/s). */
    double psp_launch_update_per_mib_ms = 245.2;

    /** Fixed cost per LAUNCH_UPDATE_DATA command (SEVeriFast issues one
     *  per pre-encrypted region, Fig 7; 5 commands + ~21 KiB payload
     *  fit Fig 10's ~8.2 ms SEVeriFast pre-encryption). */
    double psp_launch_update_cmd_ms = 0.35;

    /** SNP_LAUNCH_FINISH: finalize measurement, lock the launch flow. */
    double psp_launch_finish_ms = 1.75;

    /** PSP-side RMP/metadata initialization per SNP guest (paper §6.2:
     *  "KVM needs to initialize the RMP entries mapping guest memory"). */
    double psp_rmp_init_ms = 8.0;

    /** Attestation report generation + signing (MSG_REPORT_REQ). Part of
     *  the ~200 ms attestation cost (§6.1). */
    double psp_report_ms = 33.0;

    /** Extra PSP session commands the QEMU launch flow issues that
     *  Firecracker's minimal flow does not (fits Fig 10's 287.8 ms QEMU
     *  pre-encryption for ~1 MiB of OVMF). */
    double qemu_session_psp_ms = 38.0;

    /** Hugepage speedup on LAUNCH_UPDATE_DATA for base SEV and SEV-ES
     *  ("enabling huge pages decreases pre-encryption time with base
     *  SEV and SEV-ES, but had no effect with SEV-SNP", S6.1). */
    double psp_update_hugepage_speedup = 0.8;

    // ---- Host/guest CPU ---------------------------------------------------

    /** memcpy into C-bit (encrypted, RMP-checked) memory. With
     *  cpu_sha256_per_mib, fits Fig 10 boot verification: 1.08 ms/MiB
     *  (20.4/24.7/33.0 ms for 3.3/7.1/15 MiB bzImage + 14 MiB initrd). */
    double cpu_copy_per_mib_ms = 0.35;

    /** SHA-256 with x86 SHA extensions (the sha2 crate path, §5). */
    double cpu_sha256_per_mib_ms = 0.73;

    /** LZ4 decompression per MiB of *decompressed* output. */
    double lz4_decompress_per_mib_ms = 0.58;

    /** gzip-class (LZ77+Huffman) decompression per MiB of decompressed
     *  output - slower than LZ4, which is why Fig 5 picks LZ4 despite
     *  gzip's better ratio. */
    double gzip_decompress_per_mib_ms = 2.8;

    /** pvalidate on a 4 KiB page. 256 MiB of 4K pages => >60 ms (§6.1). */
    double pvalidate_4k_us = 0.92;

    /** pvalidate on a 2 MiB hugepage. 256 MiB => <1 ms (§6.1). */
    double pvalidate_2m_us = 7.0;

    /** Boot verifier: identity page-table init with C-bit (1 GiB, 2 MiB
     *  pages => 4 KiB of tables, §4.2). */
    double pagetable_init_ms = 0.4;

    /** Digest compare + bzImage setup-header parse, etc. */
    double verifier_fixed_ms = 0.15;

    /** Bootstrap-loader entry/relocation overhead besides decompression. */
    double bootstrap_fixed_ms = 0.5;

    // ---- VMM (host side) --------------------------------------------------

    /** Firecracker process start + jailer + API handling. */
    double fc_process_start_ms = 4.0;

    /** Firecracker device/boot setup (mptable, boot_params, vcpu). */
    double fc_setup_ms = 2.0;

    /** Loading kernel/initrd bytes from buffer cache into guest memory. */
    double vmm_load_per_mib_ms = 0.12;

    /** Hashing boot components in the VMM when out-of-band hashing is
     *  DISABLED (§4.3: "could add up to 23 ms"). */
    double vmm_hash_per_mib_ms = 0.73;

    /** KVM SEV-SNP VM creation ioctls (host side, not PSP). */
    double kvm_snp_init_ms = 22.0;

    /** KVM pinning guest pages during SNP boot, per MiB of guest memory
     *  (§6.2: pages are pinned because ciphertext is address-bound). */
    double kvm_pin_per_mib_ms = 0.075;

    /** QEMU process start (machine model, legacy device init). */
    double qemu_process_start_ms = 60.0;

    /** QEMU SEV boot setup beyond process start. */
    double qemu_setup_ms = 15.0;

    // ---- OVMF (QEMU baseline firmware) -------------------------------------
    // UEFI Platform Initialization phases, fit to Fig 3's ~3.2 s total with
    // the boot verifier a small share.

    double ovmf_sec_ms = 90.0;   //!< SEC: cache-as-RAM, C-bit discovery
    double ovmf_pei_ms = 420.0;  //!< PEI: memory init, pvalidate sweep
    double ovmf_dxe_ms = 1880.0; //!< DXE: driver dispatch (dominant)
    double ovmf_bds_ms = 744.0;  //!< BDS: boot device selection

    /** OVMF's measured-direct-boot verification per MiB (EDKII copy +
     *  OpenSSL SHA-256 without SHA-NI dispatch - slower than the
     *  SEVeriFast verifier; fits Fig 10 deltas across kernels). */
    double ovmf_verify_per_mib_ms = 2.0;

    /** OVMF firmware image size in MiB ("smallest supported build", §3.1);
     *  this whole image is pre-encrypted on the QEMU path. */
    double ovmf_image_mib = 1.0;

    // ---- Guest Linux boot ---------------------------------------------------

    /** Multiplier on guest kernel boot under SEV-SNP (§6.2: "Linux Boot
     *  takes about 2.3x longer than booting Linux without SEV"). */
    double snp_linux_boot_multiplier = 2.3;

    /** Fixed SNP early-boot overhead not proportional to kernel size:
     *  GHCB setup, #VC handler installation, lazy pvalidate of guest
     *  memory touched during decompression/boot. */
    double snp_guest_fixed_ms = 35.0;

    /** Base-SEV boot overhead: C-bit page tables and encrypted page
     *  faults, but no #VC world switches and no RMP checks. Modeling
     *  choice; the paper only quantifies SNP. */
    double sev_linux_boot_multiplier = 1.35;
    double sev_guest_fixed_ms = 8.0;

    /** SEV-ES adds #VC handling for every intercepted instruction. */
    double sev_es_linux_boot_multiplier = 1.6;
    double sev_es_guest_fixed_ms = 16.0;

    /** exec of /sbin/init (end of "boot" per the paper's methodology). */
    double init_exec_ms = 1.0;

    // ---- Attestation (end-to-end ~200 ms for all configs, §6.1) ------------

    /** Network RTTs + nginx validation on the guest-owner side. */
    double attest_net_ms = 150.0;

    /** Guest-side report request marshalling + key wrapping. */
    double attest_guest_ms = 12.0;

    // ---- Noise --------------------------------------------------------------

    /** Per-step multiplicative Gaussian jitter (std-dev as a fraction);
     *  gives the Fig 9 CDFs realistic spread. 0 disables jitter. */
    double jitter_frac = 0.02;

    /** Defaults above == calibrated-to-paper values. */
    static CostParams calibrated() { return CostParams{}; }

    /** All jitter disabled; used by unit tests for exact arithmetic. */
    static CostParams
    deterministic()
    {
        CostParams p;
        p.jitter_frac = 0.0;
        return p;
    }
};

} // namespace sevf::sim

#endif // SEVF_SIM_COST_PARAMS_H_
