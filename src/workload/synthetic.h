/**
 * @file
 * Deterministic synthetic boot artifacts (see DESIGN.md substitutions).
 *
 * Real guest kernels are unavailable in this environment, so we
 * synthesize vmlinux/bzImage/initrd files with the paper's exact
 * artifact sizes (Fig 8) and tuned compressibility, as real ELF /
 * boot-protocol / CPIO files that the project's own parsers and loaders
 * consume. Every boot-path cost the paper measures is a function of
 * size, structure, and compressibility - all reproduced here.
 */
#ifndef SEVF_WORKLOAD_SYNTHETIC_H_
#define SEVF_WORKLOAD_SYNTHETIC_H_

#include "base/status.h"
#include "base/types.h"
#include "compress/codec.h"
#include "workload/kernel_spec.h"

namespace sevf::workload {

/**
 * Bytes whose LZ4 compressibility is controlled by @p random_fraction:
 * 0.0 compresses to a few percent, 1.0 is incompressible. Deterministic
 * in @p seed.
 */
ByteVec compressibleBytes(u64 size, double random_fraction, u64 seed);

/**
 * Binary-search the random_fraction so that LZ4(bytes) lands within
 * @p tolerance of @p target_compressed. Returns the fraction.
 */
double calibrateRandomFraction(u64 size, u64 target_compressed, u64 seed,
                               double tolerance = 0.03);

/** A generated kernel with both boot formats. */
struct KernelArtifacts {
    KernelSpec spec;
    double scale = 1.0;
    ByteVec vmlinux;     //!< ELF64 file, parseable by image::parseElfView
    ByteVec bzimage;     //!< LZ4 bzImage, parseable by image::parseBzImage
    u64 entry = 0;       //!< kernel entry point inside the ELF
};

/**
 * Build the artifacts for @p spec.
 *
 * @param scale shrink factor for fast unit tests (sizes multiplied by
 *        @p scale, compressibility targets preserved); benches use 1.0.
 */
KernelArtifacts buildKernelArtifacts(const KernelSpec &spec, u64 seed,
                                     double scale = 1.0);

/**
 * Cached artifacts: built once per (config, scale) per process. The
 * bench harness boots hundreds of VMs from the same kernel, mirroring
 * the paper's warm-buffer-cache methodology (§6.1).
 */
const KernelArtifacts &cachedKernelArtifacts(KernelConfig config,
                                             double scale = 1.0);

/**
 * The attestation initrd (§2.4): a CPIO newc archive with /init, the
 * sev-guest module, attestation scripts, and a mostly-incompressible
 * payload (the real initrd only LZ4s 14 MiB -> ~12 MiB, §3.2).
 */
ByteVec syntheticInitrd(u64 uncompressed_size, u64 seed);

/** Cached initrd at the paper's size (kInitrdUncompressedSize). */
const ByteVec &cachedInitrd(double scale = 1.0);

/**
 * An OVMF-like firmware volume (~1 MiB, §3.1) - the blob the QEMU
 * baseline must pre-encrypt.
 */
ByteVec firmwareBlob(u64 size, u64 seed);

} // namespace sevf::workload

#endif // SEVF_WORKLOAD_SYNTHETIC_H_
