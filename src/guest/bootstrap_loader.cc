#include "guest/bootstrap_loader.h"

#include <algorithm>

#include "base/rng.h"
#include "base/trust_zones.h"
#include "image/bzimage.h"
#include "image/elf.h"

namespace sevf::guest {

namespace {

/**
 * BSS source: a static zero block, so zeroing a segment's BSS tail
 * allocates nothing however large the tail is. 256 KiB keeps each
 * write big enough for the page-parallel encryption to fan out.
 */
constexpr u64 kZeroChunk = 256 * kKiB;
constexpr u8 kZeros[kZeroChunk] = {};
/** XEX line: BSS chunks after the first end on line boundaries. */
constexpr u64 kLine = 16;

/**
 * Place @p elf's PT_LOAD segments into guest memory, slid by @p slide,
 * straight from the file bytes the segments view.
 */
Result<u64>
placeSegments(memory::GuestMemory &mem, const image::ElfView &elf,
              bool c_bit, u64 slide)
{
    u64 loaded = 0;
    for (const image::ElfSegmentView &seg : elf.segments) {
        Gpa dest = seg.vaddr + slide;
        SEVF_RETURN_IF_ERROR(mem.guestWrite(dest, seg.data, c_bit));
        loaded += seg.data.size();
        for (u64 off = seg.data.size(); off < seg.memsz;) {
            u64 n = std::min(seg.memsz - off,
                             kZeroChunk - (dest + off) % kLine);
            SEVF_RETURN_IF_ERROR(
                mem.guestWrite(dest + off, ByteSpan(kZeros, n), c_bit));
            off += n;
        }
    }
    return loaded;
}

/** Pick a 2 MiB-aligned slide from in-guest entropy. */
u64
pickSlide(const KaslrConfig &kaslr)
{
    if (!kaslr.enabled || kaslr.max_slide < kHugePageSize) {
        return 0;
    }
    Rng rng(kaslr.seed);
    u64 slots = kaslr.max_slide / kHugePageSize;
    return rng.nextBelow(slots) * kHugePageSize;
}

} // namespace

Result<LoadedKernel>
runBootstrapLoader(memory::GuestMemory &mem, Gpa bzimage_gpa, u64 size,
                   bool c_bit, MutByteSpan decode_area,
                   const KaslrConfig &kaslr) SEVF_TCB
{
    SEVF_ASSIGN_OR_RETURN(ByteVec file,
                          mem.guestRead(bzimage_gpa, size, c_bit));
    SEVF_ASSIGN_OR_RETURN(image::BzImageInfo info, image::parseBzImage(file));
    SEVF_ASSIGN_OR_RETURN(ByteSpan payload, image::bzImagePayload(file));
    // Decode bounded by the header's init_size, whatever the area's size.
    MutByteSpan area =
        decode_area.first(std::min<u64>(decode_area.size(), info.init_size));
    SEVF_ASSIGN_OR_RETURN(
        u64 decoded,
        compress::codecFor(info.codec).decompressInto(payload, area));
    SEVF_ASSIGN_OR_RETURN(image::ElfView elf,
                          image::parseElfView(area.first(decoded)));
    u64 slide = pickSlide(kaslr);
    SEVF_ASSIGN_OR_RETURN(u64 loaded, placeSegments(mem, elf, c_bit, slide));

    LoadedKernel out;
    out.entry = elf.entry + slide;
    out.decompressed_bytes = decoded;
    out.loaded_bytes = loaded;
    out.kaslr_slide = slide;
    out.codec = info.codec;
    return out;
}

} // namespace sevf::guest
