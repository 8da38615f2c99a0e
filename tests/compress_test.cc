/**
 * @file
 * Compression codec tests: LZ4 block-format conformance pieces,
 * gzip-lite, frame handling, and parameterized round-trip properties
 * across codecs and data shapes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "base/bytes.h"
#include "base/rng.h"
#include "compress/codec.h"
#include "compress/lz4.h"

namespace sevf::compress {
namespace {

ByteVec
repeatPattern(std::string_view pattern, std::size_t total)
{
    ByteVec out;
    out.reserve(total);
    while (out.size() < total) {
        std::size_t take = std::min(pattern.size(), total - out.size());
        out.insert(out.end(), pattern.begin(), pattern.begin() + take);
    }
    return out;
}

ByteVec
randomBytes(std::size_t n, u64 seed)
{
    ByteVec out(n);
    Rng rng(seed);
    rng.fill(out);
    return out;
}

/** Kernel-ish data: compressible structure with incompressible islands. */
ByteVec
kernelLike(std::size_t n, u64 seed)
{
    ByteVec out;
    out.reserve(n);
    Rng rng(seed);
    while (out.size() < n) {
        if (rng.nextDouble() < 0.7) {
            // Repetitive "code" region.
            ByteVec chunk = repeatPattern("\x48\x89\xe5\x55\x41\x57 mov rbp",
                                          128 + rng.nextBelow(512));
            out.insert(out.end(), chunk.begin(), chunk.end());
        } else {
            ByteVec chunk = randomBytes(64 + rng.nextBelow(256), rng.next());
            out.insert(out.end(), chunk.begin(), chunk.end());
        }
    }
    out.resize(n);
    return out;
}

// ------------------------------------------------- parameterized roundtrip

using RoundTripParam = std::tuple<CodecKind, std::string>;

class CodecRoundTrip
    : public ::testing::TestWithParam<RoundTripParam>
{
  protected:
    ByteVec
    makeData(const std::string &shape) const
    {
        if (shape == "empty") return {};
        if (shape == "one") return {0x42};
        if (shape == "small") return toBytes("hello, SEV world");
        if (shape == "zeros") return ByteVec(100000, 0);
        if (shape == "pattern") return repeatPattern("abcabcabd", 70000);
        if (shape == "random") return randomBytes(50000, 99);
        if (shape == "kernel") return kernelLike(300000, 7);
        if (shape == "boundary4096") return randomBytes(4096, 3);
        if (shape == "boundary4097") return kernelLike(4097, 3);
        if (shape == "tiny12") return toBytes("123456789012");
        if (shape == "tiny13") return toBytes("aaaaaaaaaaaaa");
        return {};
    }
};

TEST_P(CodecRoundTrip, RoundTrips)
{
    auto [kind, shape] = GetParam();
    const Codec &codec = codecFor(kind);
    ByteVec data = makeData(shape);
    ByteVec stream = codec.compress(data);
    Result<ByteVec> back = codec.decompress(stream);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(*back, data);

    // Frame metadata is self-describing.
    Result<CodecKind> k = Codec::streamKind(stream);
    ASSERT_TRUE(k.isOk());
    EXPECT_EQ(*k, kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllShapes, CodecRoundTrip,
    ::testing::Combine(
        ::testing::Values(CodecKind::kNone, CodecKind::kLz4,
                          CodecKind::kGzipLite),
        ::testing::Values("empty", "one", "small", "zeros", "pattern",
                          "random", "kernel", "boundary4096",
                          "boundary4097", "tiny12", "tiny13")),
    [](const ::testing::TestParamInfo<RoundTripParam> &info) {
        std::string name = std::string(codecName(std::get<0>(info.param))) +
                           "_" + std::get<1>(info.param);
        for (char &c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

// ------------------------------------------------------------- ratios

TEST(CompressRatios, Lz4CompressesKernelLikeData)
{
    ByteVec data = kernelLike(1 << 20, 11);
    ByteVec lz4 = codecFor(CodecKind::kLz4).compress(data);
    EXPECT_LT(lz4.size(), data.size() / 2)
        << "LZ4 should at least halve kernel-like data";
}

TEST(CompressRatios, RandomDataDoesNotExplode)
{
    ByteVec data = randomBytes(100000, 5);
    ByteVec lz4 = codecFor(CodecKind::kLz4).compress(data);
    ByteVec gzip = codecFor(CodecKind::kGzipLite).compress(data);
    // Worst-case expansion stays small (LZ4 spec bound is ~0.4% + 12).
    EXPECT_LT(lz4.size(), data.size() + data.size() / 16 + 64);
    EXPECT_LT(gzip.size(), data.size() + data.size() / 8 + 64);
}

TEST(CompressRatios, ZerosCompressMassively)
{
    ByteVec data(1 << 20, 0);
    EXPECT_LT(codecFor(CodecKind::kLz4).compress(data).size(), 8192u);
    EXPECT_LT(codecFor(CodecKind::kGzipLite).compress(data).size(), 8192u);
}

// ------------------------------------------------------------ gzip-lite

TEST(GzipLite, BeatsLz4OnRatioLosesOnNothingElse)
{
    // gzip-class codecs trade decode speed for density: on kernel-like
    // data the gzip-lite stream must be smaller than LZ4's.
    ByteVec data = kernelLike(1 << 20, 33);
    u64 lz4 = codecFor(CodecKind::kLz4).compress(data).size();
    u64 gz = codecFor(CodecKind::kGzipLite).compress(data).size();
    EXPECT_LT(gz, lz4);
}

TEST(GzipLite, HandlesLongRepeats)
{
    // Matches cap at 130 bytes; a 1 MiB run must chain many of them.
    ByteVec data(1 << 20, 0x41);
    const Codec &gz = codecFor(CodecKind::kGzipLite);
    ByteVec stream = gz.compress(data);
    EXPECT_LT(stream.size(), 10000u);
    Result<ByteVec> back = gz.decompress(stream);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, data);
}

TEST(GzipLite, RejectsCorruptHuffmanHeader)
{
    ByteVec stream = codecFor(CodecKind::kGzipLite)
                         .compress(toBytes("some compressible data data"));
    // Corrupt the code-length table region (right after the 16B frame).
    for (int i = 16; i < 40; ++i) {
        stream[i] = 0xff;
    }
    Result<ByteVec> back =
        codecFor(CodecKind::kGzipLite).decompress(stream);
    if (back.isOk()) {
        EXPECT_NE(*back, toBytes("some compressible data data"));
    }
}

// ------------------------------------------------------------- lz4 spec

/** Lz4Codec::decompressBlock into a fresh @p size-byte area. */
Result<ByteVec>
decodeBlock(ByteSpan block, std::size_t size)
{
    ByteVec out(size);
    SEVF_RETURN_IF_ERROR(Lz4Codec::decompressBlock(block, out));
    return out;
}

TEST(Lz4Block, LiteralOnlyBlockDecodes)
{
    // Hand-built block: token=0x50 (5 literals, no match), "hello".
    ByteVec block = {0x50, 'h', 'e', 'l', 'l', 'o'};
    Result<ByteVec> out = decodeBlock(block, 5);
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(*out, toBytes("hello"));
}

TEST(Lz4Block, MatchWithOverlapDecodes)
{
    // "abc" then a match of length 9 at offset 3 => "abcabcabcabc".
    // token = lit 3, matchlen code 9-4=5 => 0x35; offset 3 LE.
    ByteVec block = {0x35, 'a', 'b', 'c', 0x03, 0x00};
    Result<ByteVec> out = decodeBlock(block, 12);
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(*out, toBytes("abcabcabcabc"));
}

TEST(Lz4Block, ExtendedLengthsDecode)
{
    // 20 literals: token 0xf0, ext byte 5.
    ByteVec block;
    block.push_back(0xf0);
    block.push_back(5);
    for (int i = 0; i < 20; ++i) {
        block.push_back(static_cast<u8>('A' + i));
    }
    Result<ByteVec> out = decodeBlock(block, 20);
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(out->size(), 20u);
    EXPECT_EQ((*out)[19], 'T');
}

TEST(Lz4Block, RejectsBadOffset)
{
    // Match offset 10 with only 3 bytes of output so far.
    ByteVec block = {0x35, 'a', 'b', 'c', 0x0a, 0x00};
    EXPECT_FALSE(decodeBlock(block, 12).isOk());
}

TEST(Lz4Block, RejectsZeroOffset)
{
    ByteVec block = {0x35, 'a', 'b', 'c', 0x00, 0x00};
    EXPECT_FALSE(decodeBlock(block, 12).isOk());
}

TEST(Lz4Block, RejectsTruncatedLiterals)
{
    ByteVec block = {0x50, 'h', 'e'};
    EXPECT_FALSE(decodeBlock(block, 5).isOk());
}

TEST(Lz4Block, RejectsSizeMismatch)
{
    ByteVec block = {0x50, 'h', 'e', 'l', 'l', 'o'};
    EXPECT_FALSE(decodeBlock(block, 9).isOk());
    EXPECT_FALSE(decodeBlock(block, 3).isOk());
}

// ------------------------------------------------ decode into an area

/**
 * The one decode loop per codec, against the caller's area: an exact
 * fit, a larger area (only the declared bytes are written) and an area
 * one byte short (kCorrupted before anything is written).
 */
class DecodeInto : public ::testing::TestWithParam<CodecKind>
{
};

TEST_P(DecodeInto, ExactLargerAndShortAreas)
{
    const Codec &codec = codecFor(GetParam());
    const ByteVec data = kernelLike(20000, 13);
    const ByteVec stream = codec.compress(data);
    constexpr u8 kFill = 0xa5;

    ByteVec exact(data.size(), kFill);
    Result<u64> n = codec.decompressInto(stream, exact);
    ASSERT_TRUE(n.isOk()) << n.status().toString();
    EXPECT_EQ(*n, data.size());
    EXPECT_EQ(exact, data);

    ByteVec larger(data.size() + 100, kFill);
    n = codec.decompressInto(stream, larger);
    ASSERT_TRUE(n.isOk()) << n.status().toString();
    EXPECT_EQ(*n, data.size());
    EXPECT_EQ(ByteVec(larger.begin(), larger.begin() + data.size()), data);
    EXPECT_EQ(ByteVec(larger.begin() + data.size(), larger.end()),
              ByteVec(100, kFill));

    ByteVec short_by_one(data.size() - 1, kFill);
    EXPECT_EQ(codec.decompressInto(stream, short_by_one).status().code(),
              ErrorCode::kCorrupted);
    EXPECT_EQ(short_by_one, ByteVec(data.size() - 1, kFill));
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, DecodeInto,
    ::testing::Values(CodecKind::kNone, CodecKind::kLz4,
                      CodecKind::kGzipLite),
    [](const ::testing::TestParamInfo<CodecKind> &info) {
        std::string name = codecName(info.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

// --------------------------------------------------------- frame errors

TEST(Frame, RejectsBadMagic)
{
    ByteVec stream = codecFor(CodecKind::kLz4).compress(toBytes("data"));
    stream[0] = 'X';
    EXPECT_FALSE(codecFor(CodecKind::kLz4).decompress(stream).isOk());
}

TEST(Frame, RejectsWrongCodec)
{
    ByteVec stream = codecFor(CodecKind::kLz4).compress(toBytes("data"));
    EXPECT_FALSE(codecFor(CodecKind::kGzipLite).decompress(stream).isOk());
    EXPECT_FALSE(codecFor(CodecKind::kNone).decompress(stream).isOk());
}

TEST(Frame, RejectsTruncatedHeader)
{
    ByteVec stream = codecFor(CodecKind::kLz4).compress(toBytes("data"));
    stream.resize(6);
    EXPECT_FALSE(Codec::streamKind(stream).isOk());
}

TEST(Frame, RejectsUnknownKind)
{
    // 3 is one past gzip-lite, the last codec: the header's range check
    // must stop there, before any output is sized or written, whichever
    // codec reads the frame.
    ASSERT_EQ(static_cast<u8>(CodecKind::kGzipLite) + 1, 3);
    for (u8 kind_byte : {u8{3}, u8{0x7f}}) {
        SCOPED_TRACE(static_cast<int>(kind_byte));
        ByteVec stream =
            codecFor(CodecKind::kGzipLite).compress(kernelLike(4096, 3));
        stream[4] = kind_byte;
        EXPECT_EQ(Codec::streamKind(stream).status().code(),
                  ErrorCode::kCorrupted);
        for (CodecKind kind :
             {CodecKind::kNone, CodecKind::kLz4, CodecKind::kGzipLite}) {
            const Codec &codec = codecFor(kind);
            EXPECT_EQ(codec.decompress(stream).status().code(),
                      ErrorCode::kCorrupted);
            ByteVec area(8192, 0xa5);
            EXPECT_EQ(codec.decompressInto(stream, area).status().code(),
                      ErrorCode::kCorrupted);
            EXPECT_EQ(area, ByteVec(8192, 0xa5));
        }
    }
}

TEST(Frame, CorruptPayloadDetected)
{
    ByteVec data = kernelLike(50000, 21);
    ByteVec stream = codecFor(CodecKind::kLz4).compress(data);
    // Truncate the payload: decoder must fail, not crash.
    ByteVec cut(stream.begin(), stream.begin() + stream.size() / 2);
    EXPECT_FALSE(codecFor(CodecKind::kLz4).decompress(cut).isOk());
}

// ------------------------------------------------- forged declared size

/**
 * The codec's own 100 KB stream with the frame's declared size (u64 LE
 * after magic, kind and reserved bytes) patched to 2^50. A decoder may
 * size its output from that field only after checking it against what
 * the payload can encode (Codec::decompress does, for every codec).
 */
Status
decodeForgedSize(CodecKind kind)
{
    const Codec &codec = codecFor(kind);
    ByteVec stream = codec.compress(kernelLike(100000, 5));
    const u64 forged = u64{1} << 50;
    for (int i = 0; i < 8; ++i) {
        stream[8 + i] = static_cast<u8>(forged >> (8 * i));
    }
    return codec.decompress(stream).status();
}

TEST(ForgedSize, Lz4RejectsBeforeAllocating)
{
    EXPECT_EQ(decodeForgedSize(CodecKind::kLz4).code(),
              ErrorCode::kCorrupted);
}

TEST(ForgedSize, GzipLiteRejectsBeforeAllocating)
{
    EXPECT_EQ(decodeForgedSize(CodecKind::kGzipLite).code(),
              ErrorCode::kCorrupted);
}

TEST(ForgedSize, Lz4BoundAdmitsTheMostCompressibleInput)
{
    // All zeros is LZ4's best case, right at the 255x expansion bound:
    // the forged-size check must not reject it.
    const Codec &lz4 = codecFor(CodecKind::kLz4);
    ByteVec zeros(64u << 20, 0);
    ByteVec stream = lz4.compress(zeros);
    Result<ByteVec> back = lz4.decompress(stream);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(*back, zeros);
}

TEST(ForgedSize, GzipLiteBoundAdmitsTheMostCompressibleInput)
{
    // A run of one byte is gzip-lite's best case: 130-byte matches at
    // distance 1, each a 1-bit code plus 6 fixed bits, right at the
    // 130-bytes-per-7-bits expansion bound.
    const Codec &gz = codecFor(CodecKind::kGzipLite);
    ByteVec zeros(8u << 20, 0);
    ByteVec stream = gz.compress(zeros);
    Result<ByteVec> back = gz.decompress(stream);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(*back, zeros);
}

} // namespace
} // namespace sevf::compress
