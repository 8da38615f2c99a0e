/**
 * @file
 * bzImage builder/parser following the Linux x86 boot protocol.
 *
 * A bzImage is the compressed vmlinux appended to a small bootstrap
 * loader, fronted by the real-mode setup header ("HdrS"). SEVeriFast
 * deliberately boots this format: the verifier hashes/copies the small
 * compressed image and lets the bootstrap loader decompress in-guest,
 * which beats hashing an uncompressed vmlinux (§4.4). Field offsets
 * match Documentation/arch/x86/boot.rst so the parser rejects anything
 * a real loader would.
 */
#ifndef SEVF_IMAGE_BZIMAGE_H_
#define SEVF_IMAGE_BZIMAGE_H_

#include "base/status.h"
#include "base/types.h"
#include "compress/codec.h"

namespace sevf::image {

/** Boot-protocol constants. */
inline constexpr u16 kBootFlagMagic = 0xaa55; //!< at offset 0x1fe
inline constexpr u32 kHdrSMagic = 0x53726448; //!< "HdrS" at 0x202
inline constexpr u16 kBootProtocolVersion = 0x020f;
inline constexpr u64 kSectorSize = 512;

/** Build-time knobs. */
struct BzImageBuildConfig {
    /** Payload codec; LZ4 is the SEVeriFast choice. */
    compress::CodecKind codec = compress::CodecKind::kLz4;
    /** Size of the synthetic bootstrap-loader code in the PM image. */
    u64 loader_stub_size = 24 * kKiB;
    /** Seed for the deterministic stub bytes. */
    u64 stub_seed = 0x5712;
};

/** Parsed geometry of a bzImage. */
struct BzImageInfo {
    u8 setup_sects = 0;
    u16 version = 0;
    u64 pm_offset = 0;      //!< file offset of the protected-mode image
    u64 payload_offset = 0; //!< compressed payload, relative to pm_offset
    u64 payload_length = 0;
    u64 init_size = 0;      //!< memory needed to decompress and boot
    compress::CodecKind codec = compress::CodecKind::kNone;
};

/**
 * Wrap @p vmlinux (an ELF64 file) into a bzImage.
 */
ByteVec buildBzImage(ByteSpan vmlinux, const BzImageBuildConfig &config);

/** Validate the setup header and return the image geometry. */
Result<BzImageInfo> parseBzImage(ByteSpan file);

/**
 * Borrow the compressed payload stream. Only the in-guest bootstrap
 * loader decodes it (guest/bootstrap_loader.h), into its init_size
 * decompression area.
 */
Result<ByteSpan> bzImagePayload(ByteSpan file);

} // namespace sevf::image

#endif // SEVF_IMAGE_BZIMAGE_H_
