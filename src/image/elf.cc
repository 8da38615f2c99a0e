#include "image/elf.h"

#include <algorithm>

#include "base/bytes.h"
#include "base/trust_zones.h"

namespace sevf::image {

namespace {

constexpr u8 kMagic[4] = {0x7f, 'E', 'L', 'F'};
constexpr u8 kClass64 = 2;
constexpr u8 kDataLe = 1;
constexpr u16 kTypeExec = 2;
constexpr u16 kMachineX86_64 = 62;

} // namespace

ByteVec
writeElf(const ElfImage &image)
{
    const std::size_t phnum = image.segments.size();
    const u64 phoff = kEhdrSize;
    u64 data_off = kEhdrSize + phnum * kPhdrSize;
    // Segments are page aligned in the file so p_offset % 4K == p_vaddr
    // % 4K can hold (loaders like congruent alignment).
    data_off = alignUp(data_off, kPageSize);

    ByteWriter w;
    // e_ident
    w.bytes(ByteSpan(kMagic, 4));
    w.u8le(kClass64);
    w.u8le(kDataLe);
    w.u8le(1); // EV_CURRENT
    w.zeros(9);
    w.u16le(kTypeExec);
    w.u16le(kMachineX86_64);
    w.u32le(1); // e_version
    w.u64le(image.entry);
    w.u64le(phoff);
    w.u64le(0); // e_shoff: no sections
    w.u32le(0); // e_flags
    w.u16le(kEhdrSize);
    w.u16le(kPhdrSize);
    w.u16le(static_cast<u16>(phnum));
    w.u16le(0); // e_shentsize
    w.u16le(0); // e_shnum
    w.u16le(0); // e_shstrndx

    // Program headers.
    u64 off = data_off;
    for (const ElfSegment &s : image.segments) {
        w.u32le(kPtLoad);
        w.u32le(s.flags);
        w.u64le(off);
        w.u64le(s.vaddr);
        w.u64le(s.vaddr); // p_paddr == p_vaddr for vmlinux
        w.u64le(s.data.size());
        w.u64le(std::max<u64>(s.memsz, s.data.size()));
        w.u64le(kPageSize); // p_align
        off = alignUp(off + s.data.size(), kPageSize);
    }

    // Segment data.
    for (const ElfSegment &s : image.segments) {
        w.padTo(kPageSize);
        w.bytes(s.data);
    }
    return w.take();
}

Result<ElfLayout>
parseElfHeader(ByteSpan ehdr) SEVF_UNTRUSTED_INPUT
{
    if (ehdr.size() < kEhdrSize) {
        return errCorrupted("elf: header too short");
    }
    ByteReader r(ehdr);
    ByteVec ident = r.bytes(4).take();
    if (!std::equal(ident.begin(), ident.end(), kMagic)) {
        return errCorrupted("elf: bad magic");
    }
    if (*r.u8le() != kClass64) {
        return errCorrupted("elf: not 64-bit");
    }
    if (*r.u8le() != kDataLe) {
        return errCorrupted("elf: not little-endian");
    }
    SEVF_RETURN_IF_ERROR(r.skip(10)); // version + padding
    u16 type = *r.u16le();
    if (type != kTypeExec) {
        return errCorrupted("elf: not an executable image");
    }
    if (*r.u16le() != kMachineX86_64) {
        return errCorrupted("elf: not x86-64");
    }
    SEVF_RETURN_IF_ERROR(r.skip(4)); // e_version
    ElfLayout layout;
    layout.entry = *r.u64le();
    layout.phoff = *r.u64le();
    SEVF_RETURN_IF_ERROR(r.skip(8 + 4)); // e_shoff + e_flags
    SEVF_RETURN_IF_ERROR(r.skip(2));     // e_ehsize
    u16 phentsize = *r.u16le();
    if (phentsize != kPhdrSize) {
        return errCorrupted("elf: unexpected phentsize");
    }
    layout.phnum = *r.u16le();
    return layout;
}

Result<ElfPhdr>
parseElfPhdr(ByteSpan phdr) SEVF_UNTRUSTED_INPUT
{
    if (phdr.size() < kPhdrSize) {
        return errCorrupted("elf: phdr too short");
    }
    ByteReader r(phdr);
    ElfPhdr p;
    p.type = *r.u32le();
    p.flags = *r.u32le();
    p.offset = *r.u64le();
    p.vaddr = *r.u64le();
    SEVF_RETURN_IF_ERROR(r.skip(8)); // p_paddr
    p.filesz = *r.u64le();
    p.memsz = *r.u64le();
    return p;
}

Result<ElfView>
parseElfView(ByteSpan file) SEVF_UNTRUSTED_INPUT
{
    SEVF_ASSIGN_OR_RETURN(ElfLayout layout, parseElfHeader(file));
    u64 phdr_bytes = static_cast<u64>(layout.phnum) * kPhdrSize;
    if (layout.phoff > file.size() ||
        phdr_bytes > file.size() - layout.phoff) {
        return errCorrupted("elf: phdr table past end of file");
    }

    ElfView view;
    view.entry = layout.entry;
    for (u16 i = 0; i < layout.phnum; ++i) {
        SEVF_ASSIGN_OR_RETURN(
            ElfPhdr p, parseElfPhdr(file.subspan(layout.phoff + i * kPhdrSize)));
        if (p.type != kPtLoad) {
            continue;
        }
        if (p.offset > file.size() || p.filesz > file.size() - p.offset) {
            return errCorrupted("elf: segment data past end of file");
        }
        if (p.memsz < p.filesz) {
            return errCorrupted("elf: memsz smaller than filesz");
        }
        view.segments.push_back(ElfSegmentView{
            p.vaddr, p.flags, p.memsz, file.subspan(p.offset, p.filesz)});
    }
    if (view.segments.empty()) {
        return errCorrupted("elf: no PT_LOAD segments");
    }
    return view;
}

} // namespace sevf::image
