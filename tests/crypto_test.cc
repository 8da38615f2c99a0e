/**
 * @file
 * Crypto module tests against published vectors (FIPS 180-4, RFC 4231,
 * FIPS 197) plus properties of the XEX engine and launch-digest chain.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "base/bytes.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "crypto/aes128.h"
#include "crypto/hmac.h"
#include "crypto/measurement.h"
#include "crypto/sha256.h"
#include "crypto/xex.h"

namespace sevf::crypto {
namespace {

std::string
hexDigest(const Sha256Digest &d)
{
    return toHex(ByteSpan(d.data(), d.size()));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(hexDigest(Sha256::digest({})),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(hexDigest(Sha256::digest(asBytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(hexDigest(Sha256::digest(asBytes(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 ctx;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) {
        ctx.update(asBytes(chunk));
    }
    EXPECT_EQ(hexDigest(ctx.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot)
{
    // Split points that straddle the 64-byte block boundary.
    ByteVec data(257);
    Rng rng(42);
    rng.fill(data);
    Sha256Digest oneshot = Sha256::digest(data);

    for (std::size_t split : {1u, 63u, 64u, 65u, 128u, 200u, 256u}) {
        Sha256 ctx;
        ctx.update(ByteSpan(data).first(split));
        ctx.update(ByteSpan(data).subspan(split));
        EXPECT_EQ(ctx.finalize(), oneshot) << "split=" << split;
    }
}

TEST(Sha256, ExactBlockLengths)
{
    // 55/56/64 byte messages exercise all padding branches.
    for (std::size_t len : {55u, 56u, 63u, 64u, 119u, 120u}) {
        ByteVec data(len, 0x5a);
        Sha256 a;
        a.update(data);
        Sha256 b;
        for (u8 byte : data) {
            b.update(ByteSpan(&byte, 1));
        }
        EXPECT_EQ(a.finalize(), b.finalize()) << "len=" << len;
    }
}

TEST(Sha256, ResetReuses)
{
    Sha256 ctx;
    ctx.update(asBytes("abc"));
    (void)ctx.finalize();
    ctx.reset();
    ctx.update(asBytes("abc"));
    EXPECT_EQ(hexDigest(ctx.finalize()),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

// ---------------------------------------------------------------- HMAC

TEST(Hmac, Rfc4231Case1)
{
    ByteVec key(20, 0x0b);
    Sha256Digest mac = hmacSha256(key, asBytes("Hi There"));
    EXPECT_EQ(hexDigest(mac),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2)
{
    Sha256Digest mac =
        hmacSha256(asBytes("Jefe"), asBytes("what do ya want for nothing?"));
    EXPECT_EQ(hexDigest(mac),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3)
{
    ByteVec key(20, 0xaa);
    ByteVec data(50, 0xdd);
    Sha256Digest mac = hmacSha256(key, data);
    EXPECT_EQ(hexDigest(mac),
              "773ea91e36800e46854db8ebd09181a7"
              "2959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst)
{
    // RFC 4231 case 6: 131-byte key.
    ByteVec key(131, 0xaa);
    Sha256Digest mac = hmacSha256(
        key, asBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
    EXPECT_EQ(hexDigest(mac),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity)
{
    ByteVec k1(16, 1), k2(16, 2);
    EXPECT_NE(hmacSha256(k1, asBytes("msg")), hmacSha256(k2, asBytes("msg")));
}

// ---------------------------------------------------------------- AES-128

TEST(Aes128, Fips197Vector)
{
    Aes128Key key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
    AesBlock block = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                      0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
    Aes128 aes(key);
    aes.encryptBlock(block.data());
    EXPECT_EQ(toHex(ByteSpan(block.data(), block.size())),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
    aes.decryptBlock(block.data());
    EXPECT_EQ(toHex(ByteSpan(block.data(), block.size())),
              "00112233445566778899aabbccddeeff");
}

TEST(Aes128, EncryptDecryptRandomBlocks)
{
    Rng rng(1);
    Aes128Key key;
    rng.fill(key);
    Aes128 aes(key);
    for (int i = 0; i < 64; ++i) {
        AesBlock block, orig;
        rng.fill(block);
        orig = block;
        aes.encryptBlock(block.data());
        EXPECT_NE(block, orig);
        aes.decryptBlock(block.data());
        EXPECT_EQ(block, orig);
    }
}

// ---------------------------------------------------------------- XEX

class XexTest : public ::testing::Test
{
  protected:
    XexTest() : rng_(77)
    {
        rng_.fill(key_);
        rng_.fill(tweak_);
    }

    Rng rng_;
    Aes128Key key_;
    Aes128Key tweak_;
};

TEST_F(XexTest, RoundTrip)
{
    XexCipher xex(key_, tweak_);
    ByteVec data(4096);
    rng_.fill(data);
    ByteVec orig = data;
    xex.encrypt(data, data, 0x100000);
    EXPECT_NE(data, orig);
    xex.decrypt(data, data, 0x100000);
    EXPECT_EQ(data, orig);
}

TEST_F(XexTest, SamePlaintextDifferentAddressDiffers)
{
    // The SEV dedup-hostility property (§7.1): identical plaintext pages
    // at different physical addresses have different ciphertext.
    XexCipher xex(key_, tweak_);
    ByteVec a(4096, 0x41), b(4096, 0x41);
    xex.encrypt(a, a, 0x1000);
    xex.encrypt(b, b, 0x2000);
    EXPECT_NE(a, b);
}

TEST_F(XexTest, WrongAddressFailsToDecrypt)
{
    XexCipher xex(key_, tweak_);
    ByteVec data(64);
    rng_.fill(data);
    ByteVec orig = data;
    xex.encrypt(data, data, 0x1000);
    xex.decrypt(data, data, 0x2000); // remapped by a malicious host
    EXPECT_NE(data, orig);
}

TEST_F(XexTest, LineEncryptMatchesPageEncrypt)
{
    // Encrypting a single 16-byte line at an arbitrary mid-page address
    // must match the corresponding slice of a whole-page encrypt. This
    // pins the O(1) mid-page tweak jump (multiply by x^line_index) to
    // the sequential per-line tweak-doubling chain.
    XexCipher xex(key_, tweak_);
    ByteVec page(4096);
    rng_.fill(page);
    ByteVec whole = page;
    xex.encrypt(whole, whole, 0x7000);
    for (u64 off : {u64{0}, u64{16}, u64{2032}, u64{4080}}) {
        ByteVec line(page.begin() + off, page.begin() + off + 16);
        xex.encrypt(line, line, 0x7000 + off);
        EXPECT_TRUE(std::equal(line.begin(), line.end(),
                               whole.begin() + off))
            << "line at offset " << off;
    }
}

TEST_F(XexTest, UnalignedRangeMatchesPageSlice)
{
    // A multi-line range entering mid-page (the guestWrite RMW path)
    // must also match the whole-page ciphertext slice.
    XexCipher xex(key_, tweak_);
    ByteVec page(8192);
    rng_.fill(page);
    ByteVec whole = page;
    xex.encrypt(whole, whole, 0x30000);
    constexpr u64 kOff = 3000 / 16 * 16; // line-aligned mid-page entry
    constexpr u64 kLen = 4096;           // crosses the page boundary
    ByteVec range(page.begin() + kOff, page.begin() + kOff + kLen);
    xex.encrypt(range, range, 0x30000 + kOff);
    EXPECT_TRUE(
        std::equal(range.begin(), range.end(), whole.begin() + kOff));
}

TEST_F(XexTest, WrongKeyFailsToDecrypt)
{
    XexCipher xex(key_, tweak_);
    Aes128Key other_key = key_;
    other_key[0] ^= 1;
    XexCipher other(other_key, tweak_);
    ByteVec data(64);
    rng_.fill(data);
    ByteVec orig = data;
    xex.encrypt(data, data, 0x1000);
    other.decrypt(data, data, 0x1000);
    EXPECT_NE(data, orig);
}

TEST_F(XexTest, OutOfPlaceMatchesInPlaceAtEveryThreadCount)
{
    // Encrypting from a source buffer into a separate destination (how
    // guestWrite fills DRAM) must yield exactly the in-place ciphertext,
    // for ranges entering and leaving mid-page, at any thread count.
    XexCipher xex(key_, tweak_);
    ByteVec plain(40 * kPageSize);
    rng_.fill(plain);
    constexpr u64 kBase = 0x500000;
    // (offset, length) pairs, line aligned but not page aligned.
    const std::pair<u64, u64> ranges[] = {
        {16, 32},
        {2032, 4096},
        {4080, 16},
        {48, 17 * kPageSize + 4000},
        {kPageSize - 16, 39 * kPageSize},
    };
    for (unsigned threads : {1u, 2u, 8u}) {
        base::ScopedHostThreads scope(threads);
        for (const auto &[off, len] : ranges) {
            ByteSpan src(plain.data() + off, len);
            ByteVec in_place(src.begin(), src.end());
            xex.encrypt(in_place, in_place, kBase + off);
            ByteVec out(len);
            xex.encrypt(src, out, kBase + off);
            EXPECT_EQ(out, in_place)
                << "threads=" << threads << " off=" << off;
            ByteVec back(len);
            xex.decrypt(out, back, kBase + off);
            EXPECT_TRUE(std::equal(back.begin(), back.end(), src.begin()))
                << "threads=" << threads << " off=" << off;
        }
    }
}

using XexDeathTest = XexTest;

TEST_F(XexDeathTest, PartialOverlapIsACheckedError)
{
    // src and dst must be the same buffer or disjoint: with a partial
    // overlap the page-parallel chunks would read rewritten lines.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    XexCipher xex(key_, tweak_);
    ByteVec buf(4 * kPageSize);
    constexpr u64 kLen = 2 * kPageSize;
    EXPECT_DEATH(xex.encrypt(ByteSpan(buf.data(), kLen),
                             MutByteSpan(buf.data() + 16, kLen), 0x1000),
                 "check failed");
    EXPECT_DEATH(xex.decrypt(ByteSpan(buf.data() + kPageSize, kLen),
                             MutByteSpan(buf.data(), kLen), 0x1000),
                 "check failed");
}

// ------------------------------------------------------ launch digest

TEST(LaunchDigest, DeterministicChain)
{
    LaunchDigest a, b;
    Sha256Digest page = Sha256::digest(asBytes("verifier page"));
    a.extend(MeasuredPageType::kNormal, 0x1000, page);
    b.extend(MeasuredPageType::kNormal, 0x1000, page);
    EXPECT_EQ(a.value(), b.value());
}

TEST(LaunchDigest, OrderMatters)
{
    Sha256Digest p1 = Sha256::digest(asBytes("one"));
    Sha256Digest p2 = Sha256::digest(asBytes("two"));
    LaunchDigest a, b;
    a.extend(MeasuredPageType::kNormal, 0x1000, p1);
    a.extend(MeasuredPageType::kNormal, 0x2000, p2);
    b.extend(MeasuredPageType::kNormal, 0x2000, p2);
    b.extend(MeasuredPageType::kNormal, 0x1000, p1);
    EXPECT_NE(a.value(), b.value());
}

TEST(LaunchDigest, GpaMatters)
{
    Sha256Digest p = Sha256::digest(asBytes("page"));
    LaunchDigest a, b;
    a.extend(MeasuredPageType::kNormal, 0x1000, p);
    b.extend(MeasuredPageType::kNormal, 0x2000, p);
    EXPECT_NE(a.value(), b.value());
}

TEST(LaunchDigest, PageTypeMatters)
{
    Sha256Digest p = Sha256::digest(asBytes("page"));
    LaunchDigest a, b;
    a.extend(MeasuredPageType::kNormal, 0x1000, p);
    b.extend(MeasuredPageType::kZero, 0x1000, p);
    EXPECT_NE(a.value(), b.value());
}

TEST(LaunchDigest, ExtendRegionPadsTailPage)
{
    // 4097 bytes => two pages, the second mostly zero-padded.
    ByteVec data(4097, 0xcc);
    LaunchDigest ld;
    EXPECT_EQ(ld.extendRegion(MeasuredPageType::kNormal, 0x8000, data), 2u);

    // Manually: page 1 is 4096 x 0xcc; page 2 is 0xcc then zeros.
    LaunchDigest manual;
    ByteVec page1(4096, 0xcc);
    ByteVec page2(4096, 0);
    page2[0] = 0xcc;
    manual.extend(MeasuredPageType::kNormal, 0x8000, Sha256::digest(page1));
    manual.extend(MeasuredPageType::kNormal, 0x9000, Sha256::digest(page2));
    EXPECT_EQ(ld.value(), manual.value());
}

TEST(LaunchDigest, EmptyRegionNoOp)
{
    LaunchDigest ld;
    Sha256Digest before = ld.value();
    EXPECT_EQ(ld.extendRegion(MeasuredPageType::kNormal, 0, {}), 0u);
    EXPECT_EQ(ld.value(), before);
}

} // namespace
} // namespace sevf::crypto
