/**
 * @file
 * Unit tests for the base module: byte utilities, Status/Result, Rng,
 * the JSON writer and parser.
 */
#include <gtest/gtest.h>

#include "base/bytes.h"
#include "base/json.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/types.h"

namespace sevf {
namespace {

// ---------------------------------------------------------------- types

TEST(Types, AlignUp)
{
    EXPECT_EQ(alignUp(0, 4096), 0u);
    EXPECT_EQ(alignUp(1, 4096), 4096u);
    EXPECT_EQ(alignUp(4096, 4096), 4096u);
    EXPECT_EQ(alignUp(4097, 4096), 8192u);
}

TEST(Types, AlignDown)
{
    EXPECT_EQ(alignDown(0, 4096), 0u);
    EXPECT_EQ(alignDown(4095, 4096), 0u);
    EXPECT_EQ(alignDown(4096, 4096), 4096u);
    EXPECT_EQ(alignDown(8191, 4096), 4096u);
}

TEST(Types, PagesFor)
{
    EXPECT_EQ(pagesFor(0), 0u);
    EXPECT_EQ(pagesFor(1), 1u);
    EXPECT_EQ(pagesFor(4096), 1u);
    EXPECT_EQ(pagesFor(4097), 2u);
    EXPECT_EQ(pagesFor(2 * kMiB, kHugePageSize), 1u);
    EXPECT_EQ(pagesFor(2 * kMiB + 1, kHugePageSize), 2u);
}

// ---------------------------------------------------------------- bytes

TEST(Bytes, LoadStoreLeRoundTrip)
{
    u8 buf[8];
    storeLe<u64>(buf, 0x1122334455667788ULL);
    EXPECT_EQ(buf[0], 0x88);
    EXPECT_EQ(buf[7], 0x11);
    EXPECT_EQ(loadLe<u64>(buf), 0x1122334455667788ULL);

    storeLe<u16>(buf, 0xabcd);
    EXPECT_EQ(loadLe<u16>(buf), 0xabcd);
}

TEST(Bytes, HexRoundTrip)
{
    ByteVec data = {0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
    std::string hex = toHex(data);
    EXPECT_EQ(hex, "00deadbeefff");
    Result<ByteVec> back = fromHex(hex);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, data);
}

TEST(Bytes, FromHexRejectsMalformed)
{
    EXPECT_FALSE(fromHex("abc").isOk());  // odd length
    EXPECT_FALSE(fromHex("zz").isOk());   // non-hex chars
    EXPECT_TRUE(fromHex("").isOk());      // empty is valid
}

TEST(Bytes, FromHexAcceptsUppercase)
{
    Result<ByteVec> r = fromHex("DEADBEEF");
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(toHex(*r), "deadbeef");
}

TEST(Bytes, DigestEqual)
{
    ByteVec a = {1, 2, 3};
    ByteVec b = {1, 2, 3};
    ByteVec c = {1, 2, 4};
    ByteVec d = {1, 2};
    EXPECT_TRUE(digestEqual(a, b));
    EXPECT_FALSE(digestEqual(a, c));
    EXPECT_FALSE(digestEqual(a, d));
}

TEST(Bytes, WriterReaderRoundTrip)
{
    ByteWriter w;
    w.u8le(0x12);
    w.u16le(0x3456);
    w.u32le(0x789abcde);
    w.u64le(0x0123456789abcdefULL);
    w.str("hdr");
    w.padTo(16);
    EXPECT_EQ(w.size(), 32u);

    ByteReader r(w.buffer());
    EXPECT_EQ(*r.u8le(), 0x12);
    EXPECT_EQ(*r.u16le(), 0x3456);
    EXPECT_EQ(*r.u32le(), 0x789abcdeu);
    EXPECT_EQ(*r.u64le(), 0x0123456789abcdefULL);
    Result<ByteVec> s = r.bytes(3);
    ASSERT_TRUE(s.isOk());
    EXPECT_EQ((*s)[0], 'h');
    EXPECT_EQ(r.remaining(), 32u - 15u - 3u + 2u * 0u);
}

TEST(Bytes, ReaderBoundsChecked)
{
    ByteVec small = {1, 2};
    ByteReader r(small);
    EXPECT_FALSE(r.u32le().isOk());
    ByteReader r2(small);
    EXPECT_FALSE(r2.bytes(3).isOk());
    EXPECT_FALSE(r2.skip(3).isOk());
    EXPECT_TRUE(r2.skip(2).isOk());
    EXPECT_TRUE(r2.atEnd());
}

TEST(Bytes, WriterPatch)
{
    ByteWriter w;
    w.zeros(4);
    w.str("abcd");
    u8 fix[4];
    storeLe<u32>(fix, 0x11223344);
    w.patch(0, ByteSpan(fix, 4));
    ByteReader r(w.buffer());
    EXPECT_EQ(*r.u32le(), 0x11223344u);
}

TEST(Bytes, ReaderSeekAndView)
{
    ByteVec data = {1, 2, 3, 4, 5, 6, 7, 8};
    ByteReader r(data);
    ASSERT_TRUE(r.seek(4).isOk());
    EXPECT_EQ(*r.u8le(), 5);
    Result<ByteSpan> v = r.view(3);
    ASSERT_TRUE(v.isOk());
    EXPECT_EQ((*v)[0], 6);
    EXPECT_TRUE(r.atEnd());
    EXPECT_FALSE(r.seek(9).isOk());
    ASSERT_TRUE(r.seek(0).isOk()); // seeking back rewinds
    EXPECT_EQ(*r.u8le(), 1);
}

TEST(Bytes, ViewPastEndRejected)
{
    ByteVec data = {1, 2};
    ByteReader r(data);
    EXPECT_FALSE(r.view(3).isOk());
    EXPECT_TRUE(r.view(2).isOk());
}

// ---------------------------------------------------------------- status

TEST(Status, OkByDefault)
{
    Status s;
    EXPECT_TRUE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::kOk);
}

TEST(Status, ErrorCarriesCodeAndMessage)
{
    Status s = errIntegrity("kernel hash mismatch");
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::kIntegrityFailure);
    EXPECT_EQ(s.toString(), "integrity-failure: kernel hash mismatch");
}

TEST(Result, HoldsValue)
{
    Result<int> r = 42;
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(*r, 42);
    EXPECT_EQ(r.valueOr(7), 42);
}

TEST(Result, HoldsError)
{
    Result<int> r = errNotFound("nope");
    EXPECT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
    EXPECT_EQ(r.valueOr(7), 7);
}

TEST(Result, TakeMovesValue)
{
    Result<ByteVec> r = ByteVec{1, 2, 3};
    ByteVec v = r.take();
    EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sumsq = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sumsq += g * g;
    }
    double mean = sum / kN;
    double var = sumsq / kN - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, FillCoversBuffer)
{
    Rng rng(5);
    ByteVec buf(37, 0);
    rng.fill(buf);
    // Overwhelmingly unlikely that any 8-byte window stays zero.
    bool any_nonzero = false;
    for (u8 b : buf) {
        any_nonzero |= (b != 0);
    }
    EXPECT_TRUE(any_nonzero);
}

// ----------------------------------------------------------------- json

TEST(Json, ObjectsArraysAndEscaping)
{
    base::JsonWriter w;
    w.beginObject();
    w.key("name").value("line\n\"quoted\"");
    w.key("count").value(u64{42});
    w.key("ratio").value(0.5);
    w.key("ok").value(true);
    w.key("items").beginArray();
    w.value(u64{1}).value(u64{2});
    w.beginObject().key("x").value(i64{-3}).endObject();
    w.endArray();
    w.endObject();
    std::string out = w.take();
    EXPECT_EQ(out,
              "{\"name\":\"line\\n\\\"quoted\\\"\","
              "\"count\":42,\"ratio\":0.5,\"ok\":true,"
              "\"items\":[1,2,{\"x\":-3}]}");
}

TEST(Json, EmptyContainers)
{
    base::JsonWriter w;
    w.beginObject();
    w.key("empty_array").beginArray().endArray();
    w.key("empty_object").beginObject().endObject();
    w.endObject();
    EXPECT_EQ(w.take(), "{\"empty_array\":[],\"empty_object\":{}}");
}

TEST(Json, DoublesRoundTripExactly)
{
    // Trace timestamps are microseconds with nanosecond digits, so a
    // fixed %.6g precision would round them away.
    for (double v :
         {12345678.901, 5650.123456, 0.1, 1e-9, 9007199254740992.0}) {
        base::JsonWriter w;
        w.beginArray().value(v).endArray();
        std::string text = w.take();
        Result<base::JsonValue> doc = base::parseJson(text);
        ASSERT_TRUE(doc.isOk()) << text << ": " << doc.status().toString();
        EXPECT_EQ(doc->asArray().at(0).asNumber(), v) << text;
    }
}

TEST(Json, ParserAcceptsRfc8259Numbers)
{
    Result<base::JsonValue> doc =
        base::parseJson("[0, -0, 7, -12.5, 0.25e-3, 1E+2, 3e4]");
    ASSERT_TRUE(doc.isOk()) << doc.status().toString();
    const base::JsonValue::Array &a = doc->asArray();
    ASSERT_EQ(a.size(), 7u);
    EXPECT_EQ(a[3].asNumber(), -12.5);
    EXPECT_EQ(a[4].asNumber(), 0.25e-3);
    EXPECT_EQ(a[5].asNumber(), 100.0);
}

TEST(Json, ParserRejectsWhatRfc8259Forbids)
{
    // Raw control characters in strings, a leading zero, a bare
    // trailing dot.
    for (std::string_view bad :
         {"[\"a\tb\"]", "[\"\x01\"]", "[\"a\nb\"]", "[01]", "[1.]"}) {
        Result<base::JsonValue> doc = base::parseJson(bad);
        ASSERT_FALSE(doc.isOk()) << bad;
        EXPECT_EQ(doc.status().code(), ErrorCode::kCorrupted) << bad;
        EXPECT_NE(doc.status().message().find("at byte "), std::string::npos)
            << doc.status().toString();
    }
}

} // namespace
} // namespace sevf
