/**
 * @file
 * Image-format tests: ELF64 writer/parser, bzImage boot protocol, and
 * CPIO newc archives, including malformed-input rejection.
 */
#include <algorithm>
#include <cstring>

#include <gtest/gtest.h>

#include "base/bytes.h"
#include "base/rng.h"
#include "compress/codec.h"
#include "image/bzimage.h"
#include "image/cpio.h"
#include "image/elf.h"

namespace sevf::image {
namespace {

ByteVec
randomBytes(std::size_t n, u64 seed)
{
    ByteVec out(n);
    Rng rng(seed);
    rng.fill(out);
    return out;
}

ElfImage
sampleImage()
{
    ElfImage elf;
    elf.entry = 0x1000200;
    ElfSegment text;
    text.vaddr = 0x1000000;
    text.flags = kPfR | kPfX;
    text.data = randomBytes(10000, 1);
    text.memsz = 10000;
    ElfSegment data;
    data.vaddr = 0x1100000;
    data.flags = kPfR | kPfW;
    data.data = randomBytes(5000, 2);
    data.memsz = 9000; // 4000 bytes of BSS
    elf.segments = {text, data};
    return elf;
}

// ---------------------------------------------------------------- ELF

TEST(Elf, WriteParseRoundTrip)
{
    ElfImage elf = sampleImage();
    ByteVec file = writeElf(elf);
    Result<ElfView> back = parseElfView(file);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back->entry, elf.entry);
    ASSERT_EQ(back->segments.size(), 2u);
    EXPECT_EQ(back->segments[0].vaddr, 0x1000000u);
    EXPECT_TRUE(std::equal(back->segments[0].data.begin(),
                           back->segments[0].data.end(),
                           elf.segments[0].data.begin(),
                           elf.segments[0].data.end()));
    EXPECT_EQ(back->segments[1].memsz, 9000u);
    EXPECT_EQ(back->segments[1].flags, kPfR | kPfW);
}

TEST(Elf, HeaderOnlyParse)
{
    ByteVec file = writeElf(sampleImage());
    Result<ElfLayout> layout = parseElfHeader(file);
    ASSERT_TRUE(layout.isOk());
    EXPECT_EQ(layout->entry, 0x1000200u);
    EXPECT_EQ(layout->phnum, 2u);
    EXPECT_EQ(layout->phoff, kEhdrSize);

    Result<ElfPhdr> p0 =
        parseElfPhdr(ByteSpan(file).subspan(layout->phoff, kPhdrSize));
    ASSERT_TRUE(p0.isOk());
    EXPECT_EQ(p0->type, kPtLoad);
    EXPECT_EQ(p0->vaddr, 0x1000000u);
    EXPECT_EQ(p0->filesz, 10000u);
}

TEST(Elf, SegmentsPageAlignedInFile)
{
    ByteVec file = writeElf(sampleImage());
    Result<ElfLayout> layout = parseElfHeader(file);
    ASSERT_TRUE(layout.isOk());
    for (u16 i = 0; i < layout->phnum; ++i) {
        Result<ElfPhdr> p = parseElfPhdr(
            ByteSpan(file).subspan(layout->phoff + i * kPhdrSize, kPhdrSize));
        ASSERT_TRUE(p.isOk());
        EXPECT_EQ(p->offset % kPageSize, 0u);
    }
}

TEST(Elf, RejectsBadMagic)
{
    ByteVec file = writeElf(sampleImage());
    file[0] = 0x7e;
    EXPECT_FALSE(parseElfView(file).isOk());
}

TEST(Elf, Rejects32Bit)
{
    ByteVec file = writeElf(sampleImage());
    file[4] = 1; // ELFCLASS32
    EXPECT_FALSE(parseElfView(file).isOk());
}

TEST(Elf, RejectsWrongMachine)
{
    ByteVec file = writeElf(sampleImage());
    file[18] = 40; // EM_ARM
    EXPECT_FALSE(parseElfView(file).isOk());
}

TEST(Elf, RejectsTruncatedSegment)
{
    ByteVec file = writeElf(sampleImage());
    file.resize(file.size() - 3000);
    EXPECT_FALSE(parseElfView(file).isOk());
}

TEST(Elf, RejectsTooShort)
{
    ByteVec file = {0x7f, 'E', 'L', 'F'};
    EXPECT_FALSE(parseElfView(file).isOk());
}

TEST(Elf, NoLoadSegmentsRejected)
{
    ElfImage elf;
    elf.entry = 0x1000;
    // Header-only ELF with zero phdrs.
    ByteVec file = writeElf(elf);
    EXPECT_FALSE(parseElfView(file).isOk());
}

TEST(Elf, ZeroLengthSegmentDataRoundTrips)
{
    ElfImage elf;
    elf.entry = 0x1000;
    ElfSegment bss_only;
    bss_only.vaddr = 0x2000;
    bss_only.memsz = 4096; // pure BSS
    ElfSegment text;
    text.vaddr = 0x1000;
    text.data = toBytes("code");
    text.memsz = 4;
    elf.segments = {bss_only, text};
    ByteVec file = writeElf(elf);
    Result<ElfView> back = parseElfView(file);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back->segments[0].data.size(), 0u);
    EXPECT_EQ(back->segments[0].memsz, 4096u);
}


TEST(Elf, RejectsPhdrTablePastEnd)
{
    ByteVec file = writeElf(sampleImage());
    // e_phnum lives at offset 56; an absurd count pushes the program
    // header table past the end of the file.
    storeLe<u16>(file.data() + 56, 0xffff);
    EXPECT_FALSE(parseElfView(file).isOk());
}

TEST(Elf, RejectsWrongPhentsize)
{
    ByteVec file = writeElf(sampleImage());
    storeLe<u16>(file.data() + 54, kPhdrSize + 8);
    EXPECT_FALSE(parseElfHeader(file).isOk());
}

TEST(Elf, RejectsMemszSmallerThanFilesz)
{
    ByteVec file = writeElf(sampleImage());
    // First phdr starts at kEhdrSize; p_memsz is its 6th 8-byte field.
    storeLe<u64>(file.data() + kEhdrSize + 40, 1);
    EXPECT_FALSE(parseElfView(file).isOk());
}

TEST(Elf, RejectsTruncatedPhdrSpan)
{
    ByteVec file = writeElf(sampleImage());
    EXPECT_FALSE(parseElfPhdr(ByteSpan(file.data(), 10)).isOk());
}

// ------------------------------------------------------------- bzImage

class BzImageTest : public ::testing::Test
{
  protected:
    BzImageTest() : vmlinux_(writeElf(sampleImage())) {}

    /** The payload, decoded by the codec the header names. */
    static Result<ByteVec>
    decodePayload(ByteSpan bz)
    {
        SEVF_ASSIGN_OR_RETURN(BzImageInfo info, parseBzImage(bz));
        SEVF_ASSIGN_OR_RETURN(ByteSpan payload, bzImagePayload(bz));
        return compress::codecFor(info.codec).decompress(payload);
    }

    ByteVec vmlinux_;
};

TEST_F(BzImageTest, BuildParseRoundTrip)
{
    ByteVec bz = buildBzImage(vmlinux_, {});
    Result<BzImageInfo> info = parseBzImage(bz);
    ASSERT_TRUE(info.isOk()) << info.status().toString();
    EXPECT_EQ(info->version, kBootProtocolVersion);
    EXPECT_EQ(info->codec, compress::CodecKind::kLz4);
    EXPECT_EQ(info->pm_offset, 4 * kSectorSize);
    EXPECT_GT(info->init_size, vmlinux_.size());
}

TEST_F(BzImageTest, PayloadDecodesToOriginal)
{
    ByteVec bz = buildBzImage(vmlinux_, {});
    Result<ByteVec> decoded = decodePayload(bz);
    ASSERT_TRUE(decoded.isOk());
    EXPECT_EQ(*decoded, vmlinux_);

    // And the decoded bytes are again a loadable ELF.
    Result<ElfView> elf = parseElfView(*decoded);
    ASSERT_TRUE(elf.isOk());
    EXPECT_EQ(elf->entry, 0x1000200u);
}

TEST_F(BzImageTest, CodecChoiceIsRecorded)
{
    BzImageBuildConfig cfg;
    cfg.codec = compress::CodecKind::kGzipLite;
    ByteVec bz = buildBzImage(vmlinux_, cfg);
    Result<BzImageInfo> info = parseBzImage(bz);
    ASSERT_TRUE(info.isOk());
    EXPECT_EQ(info->codec, compress::CodecKind::kGzipLite);
    EXPECT_EQ(*decodePayload(bz), vmlinux_);
}

TEST_F(BzImageTest, CompressionShrinksCompressibleKernel)
{
    // A zero-heavy "kernel" must produce a much smaller bzImage.
    ByteVec soft(1 * kMiB, 0);
    ByteVec bz = buildBzImage(soft, {});
    EXPECT_LT(bz.size(), soft.size() / 4);
}

TEST_F(BzImageTest, RejectsMissingBootFlag)
{
    ByteVec bz = buildBzImage(vmlinux_, {});
    bz[0x1fe] = 0;
    EXPECT_FALSE(parseBzImage(bz).isOk());
}

TEST_F(BzImageTest, RejectsMissingHdrS)
{
    ByteVec bz = buildBzImage(vmlinux_, {});
    bz[0x202] = 'X';
    EXPECT_FALSE(parseBzImage(bz).isOk());
}

TEST_F(BzImageTest, RejectsTruncatedPayload)
{
    ByteVec bz = buildBzImage(vmlinux_, {});
    bz.resize(bz.size() - 100);
    EXPECT_FALSE(parseBzImage(bz).isOk());
}

TEST_F(BzImageTest, RejectsTinyFile)
{
    ByteVec tiny(100, 0);
    EXPECT_FALSE(parseBzImage(tiny).isOk());
}

TEST_F(BzImageTest, CorruptPayloadFailsExtraction)
{
    ByteVec bz = buildBzImage(vmlinux_, {});
    Result<BzImageInfo> info = parseBzImage(bz);
    ASSERT_TRUE(info.isOk());
    // Flip bytes in the middle of the compressed stream.
    std::size_t off = info->pm_offset + info->payload_offset + 100;
    bz[off] ^= 0xff;
    bz[off + 1] ^= 0xff;
    Result<ByteVec> decoded = decodePayload(bz);
    // Either the decode fails or the output differs; both count as a
    // detected corruption for the loader (which re-hashes anyway).
    if (decoded.isOk()) {
        EXPECT_NE(*decoded, vmlinux_);
    }
}


TEST_F(BzImageTest, RejectsHugePayloadOffset)
{
    ByteVec bz = buildBzImage(vmlinux_, {});
    // A payload_offset pointing far past the file must be rejected even
    // though payload_length alone still fits.
    storeLe<u32>(bz.data() + 0x248, 0x7fffffff);
    EXPECT_FALSE(parseBzImage(bz).isOk());
    EXPECT_FALSE(bzImagePayload(bz).isOk());
}

TEST_F(BzImageTest, RejectsHugePayloadLength)
{
    ByteVec bz = buildBzImage(vmlinux_, {});
    storeLe<u32>(bz.data() + 0x24c, 0xf0000000);
    EXPECT_FALSE(parseBzImage(bz).isOk());
    EXPECT_FALSE(bzImagePayload(bz).isOk());
}

TEST_F(BzImageTest, RejectsPreNoPayloadProtocol)
{
    ByteVec bz = buildBzImage(vmlinux_, {});
    storeLe<u16>(bz.data() + 0x206, 0x0207);
    EXPECT_FALSE(parseBzImage(bz).isOk());
}

// ---------------------------------------------------------------- CPIO

TEST(Cpio, RoundTrip)
{
    std::vector<CpioEntry> entries;
    entries.push_back({"init", 0100755, toBytes("#!/bin/sh\nexec attest\n")});
    entries.push_back({"bin/tool", 0100755, randomBytes(5000, 9)});
    entries.push_back({"etc/empty", 0100644, {}});

    ByteVec archive = writeCpio(entries);
    EXPECT_EQ(archive.size() % 512, 0u);

    Result<std::vector<CpioEntry>> back = parseCpio(archive);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    ASSERT_EQ(back->size(), 3u);
    EXPECT_EQ((*back)[0].name, "init");
    EXPECT_EQ((*back)[1].data, entries[1].data);
    EXPECT_EQ((*back)[2].data.size(), 0u);
    EXPECT_EQ((*back)[0].mode, 0100755u);
}

TEST(Cpio, FindEntry)
{
    std::vector<CpioEntry> entries;
    entries.push_back({"init", 0100755, toBytes("x")});
    entries.push_back({"bin/tool", 0100755, toBytes("y")});
    EXPECT_NE(findEntry(entries, "bin/tool"), nullptr);
    EXPECT_EQ(findEntry(entries, "missing"), nullptr);
}

TEST(Cpio, EmptyArchiveHasOnlyTrailer)
{
    ByteVec archive = writeCpio({});
    Result<std::vector<CpioEntry>> back = parseCpio(archive);
    ASSERT_TRUE(back.isOk());
    EXPECT_TRUE(back->empty());
}

TEST(Cpio, RejectsBadMagic)
{
    ByteVec archive = writeCpio({{"f", 0100644, toBytes("d")}});
    archive[0] = 'X';
    EXPECT_FALSE(parseCpio(archive).isOk());
}

TEST(Cpio, RejectsTruncation)
{
    ByteVec archive =
        writeCpio({{"file", 0100644, randomBytes(1000, 3)}});
    ByteVec cut(archive.begin(), archive.begin() + 300);
    EXPECT_FALSE(parseCpio(cut).isOk());
}

TEST(Cpio, RejectsMissingTrailer)
{
    // An archive cut exactly after the first entry (no TRAILER!!!).
    std::vector<CpioEntry> entries{{"a", 0100644, toBytes("zz")}};
    ByteVec full = writeCpio(entries);
    // Find the trailer by parsing; cut just before it.
    // Entry: 110 hdr + 2 name + pad(4) + 2 data + pad -> locate trailer magic.
    std::string hay(full.begin(), full.end());
    std::size_t trailer_pos = hay.find("TRAILER!!!");
    ASSERT_NE(trailer_pos, std::string::npos);
    ByteVec cut(full.begin(),
                full.begin() + static_cast<long>(trailer_pos) - 110);
    EXPECT_FALSE(parseCpio(cut).isOk());
}

TEST(Cpio, RejectsNonHexHeaderField)
{
    ByteVec archive = writeCpio({{"f", 0100644, toBytes("d")}});
    archive[6 + 8 * 11 + 1] = 'Z'; // inside c_namesize (a parsed field)
    EXPECT_FALSE(parseCpio(archive).isOk());
}


TEST(Cpio, RejectsZeroNamesize)
{
    ByteVec archive = writeCpio({{"f", 0100644, toBytes("d")}});
    // c_namesize is header field 11: bytes [6 + 88, 6 + 96).
    std::memcpy(archive.data() + 6 + 8 * 11, "00000000", 8);
    EXPECT_FALSE(parseCpio(archive).isOk());
}

TEST(Cpio, RejectsNamePastEnd)
{
    ByteVec archive = writeCpio({{"f", 0100644, toBytes("d")}});
    std::memcpy(archive.data() + 6 + 8 * 11, "000FFFFF", 8);
    EXPECT_FALSE(parseCpio(archive).isOk());
}

TEST(Cpio, RejectsDataPastEnd)
{
    ByteVec archive = writeCpio({{"f", 0100644, toBytes("d")}});
    // c_filesize is header field 6: bytes [6 + 48, 6 + 56).
    std::memcpy(archive.data() + 6 + 8 * 6, "000FFFFF", 8);
    EXPECT_FALSE(parseCpio(archive).isOk());
}

} // namespace
} // namespace sevf::image
