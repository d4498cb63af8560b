/**
 * @file
 * Unit tests for the support library: formatting, RNG, bit vectors,
 * byte buffers, compression, and statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "support/bitvector.h"
#include "support/bytebuffer.h"
#include "support/compression.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/random.h"
#include "support/stats.h"

namespace protean {
namespace {

TEST(Logging, StrformatBasics)
{
    EXPECT_EQ(strformat("x=%d", 42), "x=42");
    EXPECT_EQ(strformat("%s/%s", "a", "b"), "a/b");
    EXPECT_EQ(strformat("%.2f", 1.2345), "1.23");
}

TEST(Logging, StrformatLongOutput)
{
    std::string big(5000, 'q');
    EXPECT_EQ(strformat("%s", big.c_str()).size(), 5000u);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng r(99);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(5);
    bool lo = false, hi = false;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        lo |= v == -3;
        hi |= v == 3;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, NextDoubleUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    RunningStat s;
    for (int i = 0; i < 20000; ++i)
        s.add(r.nextGaussian(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, NextBoundedInclusiveAndCovering)
{
    Rng r(21);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        uint64_t v = r.nextBounded(10, 17);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 17u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 8u);
    // Degenerate interval and the full 64-bit domain both work.
    EXPECT_EQ(r.nextBounded(5, 5), 5u);
    (void)r.nextBounded(0, UINT64_MAX);
}

TEST(Rng, NextBoundedUniform)
{
    // Chi-square-ish sanity: each of 8 buckets gets its fair share.
    Rng r(23);
    uint64_t counts[8] = {};
    const int kDraws = 16000;
    for (int i = 0; i < kDraws; ++i)
        ++counts[r.nextBounded(0, 7)];
    for (uint64_t c : counts) {
        EXPECT_GT(c, kDraws / 8 * 0.85);
        EXPECT_LT(c, kDraws / 8 * 1.15);
    }
}

TEST(Rng, ExponentialMoments)
{
    // Exponential(mean): mean == stddev == the parameter.
    Rng r(29);
    RunningStat s;
    for (int i = 0; i < 40000; ++i) {
        double v = r.nextExponential(4.0);
        EXPECT_GE(v, 0.0);
        s.add(v);
    }
    EXPECT_NEAR(s.mean(), 4.0, 0.15);
    EXPECT_NEAR(s.stddev(), 4.0, 0.25);
}

TEST(Rng, ExponentialMemoryless)
{
    // P(X > t) = exp(-t/mean): check the survival function at the
    // mean (should be ~36.8%).
    Rng r(31);
    int above = 0;
    const int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i)
        above += r.nextExponential(2.0) > 2.0;
    double frac = static_cast<double>(above) / kDraws;
    EXPECT_NEAR(frac, std::exp(-1.0), 0.02);
}

TEST(Rng, ForkIndependence)
{
    Rng a(17);
    Rng b = a.fork();
    // Streams should not track each other.
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(BitVector, Basics)
{
    BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_TRUE(v.none());
    v.set(0);
    v.set(64);
    v.set(129);
    EXPECT_EQ(v.count(), 3u);
    EXPECT_TRUE(v.test(64));
    EXPECT_FALSE(v.test(63));
    v.set(64, false);
    EXPECT_EQ(v.count(), 2u);
}

TEST(BitVector, InitialAllSet)
{
    BitVector v(70, true);
    EXPECT_TRUE(v.all());
    EXPECT_EQ(v.count(), 70u);
}

TEST(BitVector, FlipIsInvolution)
{
    BitVector v(100);
    Rng r(3);
    for (int i = 0; i < 50; ++i)
        v.set(r.nextBelow(100));
    BitVector before = v;
    for (size_t i = 0; i < 100; ++i) {
        v.flip(i);
        v.flip(i);
    }
    EXPECT_TRUE(v == before);
}

TEST(BitVector, SetAllClearAll)
{
    BitVector v(77);
    v.setAll();
    EXPECT_TRUE(v.all());
    v.clearAll();
    EXPECT_TRUE(v.none());
}

TEST(BitVector, OrAndOperators)
{
    BitVector a(10), b(10);
    a.set(1);
    a.set(2);
    b.set(2);
    b.set(3);
    BitVector o = a;
    o |= b;
    EXPECT_EQ(o.count(), 3u);
    BitVector n = a;
    n &= b;
    EXPECT_EQ(n.count(), 1u);
    EXPECT_TRUE(n.test(2));
}

TEST(BitVector, SetBitsAscending)
{
    BitVector v(20);
    v.set(5);
    v.set(1);
    v.set(19);
    auto bits = v.setBits();
    ASSERT_EQ(bits.size(), 3u);
    EXPECT_EQ(bits[0], 1u);
    EXPECT_EQ(bits[1], 5u);
    EXPECT_EQ(bits[2], 19u);
}

TEST(BitVector, ToStringMatchesBits)
{
    BitVector v(5);
    v.set(0);
    v.set(3);
    EXPECT_EQ(v.toString(), "10010");
}

TEST(BitVector, ZeroSize)
{
    BitVector v(0);
    EXPECT_TRUE(v.none());
    EXPECT_TRUE(v.all());
    EXPECT_EQ(v.count(), 0u);
}

TEST(ByteBuffer, VarUintRoundtrip)
{
    ByteWriter w;
    std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1ULL << 20,
                                    1ULL << 40, UINT64_MAX};
    for (uint64_t v : values)
        w.writeVarUint(v);
    ByteReader r(w.bytes());
    for (uint64_t v : values)
        EXPECT_EQ(r.readVarUint(), v);
    EXPECT_TRUE(r.atEnd());
}

TEST(ByteBuffer, VarIntRoundtrip)
{
    ByteWriter w;
    std::vector<int64_t> values = {0, -1, 1, -64, 64, INT64_MIN,
                                   INT64_MAX, -123456789};
    for (int64_t v : values)
        w.writeVarInt(v);
    ByteReader r(w.bytes());
    for (int64_t v : values)
        EXPECT_EQ(r.readVarInt(), v);
}

TEST(ByteBuffer, SmallNegativesAreCompact)
{
    ByteWriter w;
    w.writeVarInt(-1);
    EXPECT_EQ(w.bytes().size(), 1u);
}

TEST(ByteBuffer, FixedAndDouble)
{
    ByteWriter w;
    w.writeFixed64(0xdeadbeefcafef00dULL);
    w.writeDouble(3.14159);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.readFixed64(), 0xdeadbeefcafef00dULL);
    EXPECT_DOUBLE_EQ(r.readDouble(), 3.14159);
}

TEST(ByteBuffer, StringRoundtrip)
{
    ByteWriter w;
    w.writeString("");
    w.writeString("hello");
    std::string binary("\x00\x01\x02", 3);
    w.writeString(binary);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.readString(), "");
    EXPECT_EQ(r.readString(), "hello");
    EXPECT_EQ(r.readString(), binary);
}

TEST(ByteBuffer, RandomizedRoundtrip)
{
    Rng rng(21);
    for (int iter = 0; iter < 50; ++iter) {
        ByteWriter w;
        std::vector<uint64_t> vals;
        for (int i = 0; i < 100; ++i) {
            uint64_t v = rng.next() >> rng.nextBelow(64);
            vals.push_back(v);
            w.writeVarUint(v);
        }
        ByteReader r(w.bytes());
        for (uint64_t v : vals)
            EXPECT_EQ(r.readVarUint(), v);
    }
}

class CompressionRoundtrip
    : public ::testing::TestWithParam<size_t>
{};

TEST_P(CompressionRoundtrip, RandomData)
{
    Rng rng(GetParam() + 1);
    std::vector<uint8_t> data(GetParam());
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.nextBelow(256));
    auto packed = compress(data);
    EXPECT_EQ(decompress(packed), data);
}

TEST_P(CompressionRoundtrip, RepetitiveData)
{
    std::vector<uint8_t> data(GetParam());
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>((i / 7) % 5);
    auto packed = compress(data);
    EXPECT_EQ(decompress(packed), data);
    if (data.size() > 256) {
        // Repetitive data should actually shrink.
        EXPECT_LT(packed.size(), data.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompressionRoundtrip,
                         ::testing::Values(0, 1, 3, 4, 5, 64, 1000,
                                           65536, 200000));

TEST(Compression, TextCompressesWell)
{
    std::string text;
    for (int i = 0; i < 200; ++i)
        text += "the quick brown fox jumps over the lazy dog ";
    std::vector<uint8_t> data(text.begin(), text.end());
    auto packed = compress(data);
    EXPECT_LT(packed.size(), data.size() / 5);
    EXPECT_EQ(decompress(packed), data);
}

TEST(Compression, OverlappingMatchesRle)
{
    // A run of one byte exercises the overlapping-copy path.
    std::vector<uint8_t> data(10000, 0xaa);
    auto packed = compress(data);
    EXPECT_LT(packed.size(), 64u);
    EXPECT_EQ(decompress(packed), data);
}

TEST(RunningStat, Moments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, Percentile)
{
    std::vector<double> xs = {5, 1, 4, 2, 3};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
}

TEST(Ewma, ConvergesToConstant)
{
    Ewma e(0.5);
    EXPECT_FALSE(e.primed());
    for (int i = 0; i < 50; ++i)
        e.add(7.0);
    EXPECT_TRUE(e.primed());
    EXPECT_NEAR(e.value(), 7.0, 1e-9);
}

TEST(Ewma, FirstValuePrimes)
{
    Ewma e(0.1);
    e.add(100.0);
    EXPECT_DOUBLE_EQ(e.value(), 100.0);
}

TEST(Ewma, Reset)
{
    Ewma e(0.5);
    e.add(3.0);
    e.reset();
    EXPECT_FALSE(e.primed());
    EXPECT_EQ(e.value(), 0.0);
}

TEST(Json, ParsesScalarsAndStructure)
{
    std::string err;
    JsonValue v = JsonValue::parse(
        "{\"n\": -12.5, \"s\": \"hi\\nthere\", \"b\": true, "
        "\"z\": null, \"a\": [1, 2, 3]}",
        &err);
    ASSERT_TRUE(v.isObject()) << err;
    EXPECT_DOUBLE_EQ(v.find("n")->asNumber(), -12.5);
    EXPECT_EQ(v.find("n")->asInt(), -12);
    EXPECT_EQ(v.find("s")->asString(), "hi\nthere");
    EXPECT_TRUE(v.find("b")->asBool());
    EXPECT_TRUE(v.find("z")->isNull());
    ASSERT_TRUE(v.find("a")->isArray());
    ASSERT_EQ(v.find("a")->items().size(), 3u);
    EXPECT_DOUBLE_EQ(v.find("a")->items()[2].asNumber(), 3.0);
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(v.numberOr("n", 0.0), -12.5);
    EXPECT_DOUBLE_EQ(v.numberOr("missing", 9.0), 9.0);
    EXPECT_EQ(v.stringOr("s", ""), "hi\nthere");
    EXPECT_EQ(v.stringOr("missing", "dflt"), "dflt");
}

TEST(Json, PreservesObjectMemberOrder)
{
    JsonValue v = JsonValue::parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.members().size(), 3u);
    EXPECT_EQ(v.members()[0].first, "z");
    EXPECT_EQ(v.members()[1].first, "a");
    EXPECT_EQ(v.members()[2].first, "m");
}

TEST(Json, ReportsErrorsWithOffsets)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated",
          "1 2", "{\"a\": 1e}"}) {
        std::string err;
        JsonValue v = JsonValue::parse(bad, &err);
        EXPECT_TRUE(v.isNull()) << "accepted: " << bad;
        EXPECT_FALSE(err.empty()) << "no message for: " << bad;
        EXPECT_NE(err.find("at byte"), std::string::npos)
            << "no byte offset in: " << err;
    }
}

TEST(Json, RoundTripsTheRepoOwnExports)
{
    // The shape fleet_faults --hotloop-out writes.
    std::string doc =
        "{\n\"schema\": 1,\n\"runs\": [\n"
        "  {\"deploys\": 155, \"mode\": \"entry-only\", "
        "\"worst\": 746384},\n"
        "  {\"deploys\": 155, \"mode\": \"osr\", "
        "\"worst\": 9778}\n"
        "],\n\"tail_reduction\": 76.332992431990178\n}\n";
    std::string err;
    JsonValue v = JsonValue::parse(doc, &err);
    ASSERT_TRUE(v.isObject()) << err;
    EXPECT_EQ(v.find("schema")->asInt(), 1);
    ASSERT_EQ(v.find("runs")->items().size(), 2u);
    const JsonValue &run = v.find("runs")->items().back();
    EXPECT_EQ(run.stringOr("mode", ""), "osr");
    EXPECT_EQ(run.find("worst")->asInt(), 9778);
    EXPECT_DOUBLE_EQ(v.numberOr("tail_reduction", 0.0),
                     76.332992431990178);
}

} // namespace
} // namespace protean
