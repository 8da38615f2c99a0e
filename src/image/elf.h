/**
 * @file
 * ELF64 (x86-64) writer/parser for vmlinux images.
 *
 * Only what the boot path needs: the ELF header, program headers, and
 * PT_LOAD segments. The VMM's direct-boot loader and the boot verifier's
 * optimized streaming loader (§5) both consume this; the workload module
 * produces synthetic vmlinux files with it.
 */
#ifndef SEVF_IMAGE_ELF_H_
#define SEVF_IMAGE_ELF_H_

#include <vector>

#include "base/status.h"
#include "base/types.h"

namespace sevf::image {

/** Segment flag bits (p_flags). */
inline constexpr u32 kPfX = 1;
inline constexpr u32 kPfW = 2;
inline constexpr u32 kPfR = 4;

/** One PT_LOAD segment. */
struct ElfSegment {
    u64 vaddr = 0;   //!< load address (physical == virtual for vmlinux)
    u32 flags = kPfR; //!< PF_R/W/X
    u64 memsz = 0;   //!< in-memory size (>= data.size(); excess is BSS)
    ByteVec data;    //!< file contents
};

/** A loadable ELF image, as writeElf() serializes it. */
struct ElfImage {
    u64 entry = 0; //!< the kernel's 64-bit entry point
    std::vector<ElfSegment> segments;
};

/** Fixed header geometry (64-bit ELF, no sections). */
inline constexpr std::size_t kEhdrSize = 64;
inline constexpr std::size_t kPhdrSize = 56;

/** Serialize to ELF64 bytes (header + phdrs + segment data). */
ByteVec writeElf(const ElfImage &image);

/** One PT_LOAD segment as a window into the file it was parsed from. */
struct ElfSegmentView {
    u64 vaddr = 0;    //!< load address (physical == virtual for vmlinux)
    u32 flags = kPfR; //!< PF_R/W/X
    u64 memsz = 0;    //!< in-memory size (>= data.size(); excess is BSS)
    ByteSpan data;    //!< the segment's file bytes
};

/** Entry point and PT_LOAD segments of an ELF file, copying nothing. */
struct ElfView {
    u64 entry = 0;
    std::vector<ElfSegmentView> segments;
};

/**
 * The one validated program-header walk over an ELF64 vmlinux.
 * Validates magic, class (64-bit LE), machine (EM_X86_64), the phdr
 * table and every PT_LOAD's file range. The segments view @p file,
 * which must outlive the result: loaders place them straight into
 * guest memory without an intermediate copy.
 */
Result<ElfView> parseElfView(ByteSpan file);

/**
 * Geometry of an ELF file, parsed from the 64-byte header alone. The
 * fw_cfg streaming loader uses this to fetch the phdr table and each
 * segment without holding the whole file (§5's optimized vmlinux path).
 */
struct ElfLayout {
    u64 entry = 0;
    u64 phoff = 0;  //!< program header table offset
    u16 phnum = 0;  //!< number of program headers
};

/** Parse just the ELF header. */
Result<ElfLayout> parseElfHeader(ByteSpan ehdr);

/** One program header, parsed standalone. */
struct ElfPhdr {
    u32 type = 0;
    u32 flags = 0;
    u64 offset = 0;
    u64 vaddr = 0;
    u64 filesz = 0;
    u64 memsz = 0;
};

inline constexpr u32 kPtLoad = 1;

/** Parse one 56-byte program header. */
Result<ElfPhdr> parseElfPhdr(ByteSpan phdr);

} // namespace sevf::image

#endif // SEVF_IMAGE_ELF_H_
