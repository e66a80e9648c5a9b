/**
 * @file
 * Unit tests for the util module: bit manipulation, RNG,
 * statistics containers, logging levels, and table printing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "fnv1a.hh"
#include "util/bitfield.hh"
#include "util/generator.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table_printer.hh"
#include "util/types.hh"

namespace rcnvm::util {
namespace {

TEST(Bitfield, BitsExtractsLowField)
{
    EXPECT_EQ(bits(0xffu, 0, 4), 0xfu);
    EXPECT_EQ(bits(0xf0u, 4, 4), 0xfu);
    EXPECT_EQ(bits(0xdeadbeefull, 0, 32), 0xdeadbeefull);
}

TEST(Bitfield, BitsHandlesFullWidth)
{
    EXPECT_EQ(bits(~0ull, 0, 64), ~0ull);
    EXPECT_EQ(bits(~0ull, 1, 64), ~0ull >> 1);
}

TEST(Bitfield, BitsOfZeroIsZero)
{
    for (unsigned first = 0; first < 64; ++first)
        EXPECT_EQ(bits(0, first, 8), 0u);
}

TEST(Bitfield, InsertBitsRoundTripsWithBits)
{
    const std::uint64_t base = 0x123456789abcdef0ull;
    for (unsigned first = 0; first < 56; first += 7) {
        const std::uint64_t v = insertBits(base, first, 5, 0x15);
        EXPECT_EQ(bits(v, first, 5), 0x15u);
    }
}

TEST(Bitfield, InsertBitsPreservesOtherBits)
{
    const std::uint64_t v = insertBits(0xffffffffull, 8, 8, 0);
    EXPECT_EQ(v, 0xffff00ffull);
}

TEST(Bitfield, IsPowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(1023));
    EXPECT_TRUE(isPowerOfTwo(1ull << 63));
}

TEST(Bitfield, Log2i)
{
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(2), 1u);
    EXPECT_EQ(log2i(1024), 10u);
    EXPECT_EQ(log2i(1ull << 40), 40u);
}

TEST(Bitfield, AlignDownUp)
{
    EXPECT_EQ(alignDown(127, 64), 64u);
    EXPECT_EQ(alignDown(128, 64), 128u);
    EXPECT_EQ(alignUp(127, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
    EXPECT_EQ(alignUp(0, 64), 0u);
}

TEST(Bitfield, DivCeil)
{
    EXPECT_EQ(divCeil(0, 8), 0u);
    EXPECT_EQ(divCeil(1, 8), 1u);
    EXPECT_EQ(divCeil(8, 8), 1u);
    EXPECT_EQ(divCeil(9, 8), 2u);
}

TEST(Types, TickConversions)
{
    EXPECT_EQ(nsToTicks(1.0), Tick{1000});
    EXPECT_EQ(nsToTicks(25.0), Tick{25000});
    EXPECT_DOUBLE_EQ(ticksToNs(Tick{2500}), 2.5);
}

TEST(Types, OrientationHelpers)
{
    EXPECT_EQ(flip(Orientation::Row), Orientation::Column);
    EXPECT_EQ(flip(Orientation::Column), Orientation::Row);
    EXPECT_STREQ(toString(Orientation::Row), "row");
    EXPECT_STREQ(toString(Orientation::Column), "column");
}

TEST(Random, DeterministicForSeed)
{
    Random a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Random, BoundedStaysInRange)
{
    Random rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Random, BoundedCoversRange)
{
    Random rng(5);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[rng.nextBounded(8)];
    for (int count : seen)
        EXPECT_GT(count, 300); // roughly uniform
}

TEST(Random, RangeInclusive)
{
    Random rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, DoubleInUnitInterval)
{
    Random rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Random, BernoulliFrequency)
{
    Random rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Random, SequenceGolden)
{
    // Every seeded table, trace and service mix depends on the exact
    // draws, so a change to how they are computed (inlining, a
    // constant bound folded into multiplies) must keep this hash.
    // 100000 is Table::valueRange; 17 leaves a nonzero rejection
    // threshold.
    Random rng(42);
    test::Fnv1a h;
    for (int i = 0; i < 4096; ++i) {
        h.word(rng.next());
        h.word(rng.nextBounded(100000));
        h.word(rng.nextBounded(17));
        h.word(std::bit_cast<std::uint64_t>(rng.nextDouble()));
    }
    EXPECT_EQ(h.hash, 1367398156212088619ull);
}

TEST(Stats, CounterAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Stats, SampledTracksMoments)
{
    Sampled s;
    s.sample(1.0);
    s.sample(3.0);
    s.sample(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(Stats, SampledEmptyIsZero)
{
    Sampled s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Stats, MapSetAddGet)
{
    StatsMap m;
    EXPECT_DOUBLE_EQ(m.get("missing"), 0.0);
    EXPECT_DOUBLE_EQ(m.get("missing", 7.0), 7.0);
    m.set("a", 1.0);
    m.add("a", 2.0);
    EXPECT_DOUBLE_EQ(m.get("a"), 3.0);
    EXPECT_TRUE(m.contains("a"));
    EXPECT_FALSE(m.contains("b"));
}

TEST(Stats, StrictLookupThrowsOnUnknownName)
{
    StatsMap m;
    m.set("known", 1.0);
    EXPECT_DOUBLE_EQ(m.at("known"), 1.0);
    EXPECT_THROW(m.at("unknown"), std::out_of_range);
    EXPECT_THROW(m.at("knowm"), std::out_of_range); // typo guard
}

TEST(Stats, SampledMergeEmptyEdgeCases)
{
    Sampled empty1, empty2;
    empty1.merge(empty2);
    EXPECT_EQ(empty1.count(), 0u);
    EXPECT_DOUBLE_EQ(empty1.mean(), 0.0);

    // empty ⊕ non-empty takes the non-empty moments whole.
    Sampled a, b;
    b.sample(2.0);
    b.sample(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);

    // non-empty ⊕ empty is unchanged.
    Sampled c, d;
    c.sample(-5.0);
    c.merge(d);
    EXPECT_EQ(c.count(), 1u);
    EXPECT_DOUBLE_EQ(c.mean(), -5.0);
    EXPECT_DOUBLE_EQ(c.min(), -5.0);
    EXPECT_DOUBLE_EQ(c.max(), -5.0);
}

TEST(Stats, SampledMergeNegativeValues)
{
    // min/max must come from real samples, not a zero-initialised
    // default that an all-negative population would never beat.
    Sampled a, b;
    a.sample(-1.0);
    a.sample(-3.0);
    b.sample(-2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.min(), -3.0);
    EXPECT_DOUBLE_EQ(a.max(), -1.0);
    EXPECT_DOUBLE_EQ(a.mean(), -2.0);
}

/** The log2 bucketing the k = 0 layout must reproduce. */
unsigned
log2BucketOf(std::uint64_t v)
{
    unsigned b = 0;
    for (; v != 0; v >>= 1)
        ++b;
    return b;
}

std::uint64_t
log2BucketLow(unsigned i)
{
    return i <= 1 ? i : std::uint64_t{1} << (i - 1);
}

std::uint64_t
log2BucketHigh(unsigned i)
{
    if (i == 0)
        return 0;
    return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
}

TEST(Stats, HistogramBucketBoundaries)
{
    Histogram h;
    EXPECT_EQ(h.subBucketBits(), 0u);
    EXPECT_EQ(h.bucketCount(), 65u);
    h.sample(0); // bucket 0 holds exactly the zeros
    h.sample(1); // [1,2) -> bucket 1
    h.sample(2); // [2,4) -> bucket 2
    h.sample(3);
    h.sample(4); // [4,8) -> bucket 3
    h.sample(7);
    h.sample(8); // [8,16) -> bucket 4
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.bucket(5), 0u);
    EXPECT_EQ(h.bucketLow(0), 0u);
    EXPECT_EQ(h.bucketLow(1), 1u);
    EXPECT_EQ(h.bucketLow(2), 2u);
    EXPECT_EQ(h.bucketLow(3), 4u);
    EXPECT_EQ(h.bucketLow(4), 8u);

    // k = 0 is the log2 layout at every octave edge.
    std::vector<std::uint64_t> edges = {0, ~std::uint64_t{0}};
    for (unsigned i = 1; i < 64; ++i) {
        const std::uint64_t p = std::uint64_t{1} << i;
        edges.insert(edges.end(), {p - 1, p, p + 1});
    }
    for (const std::uint64_t v : edges)
        EXPECT_EQ(h.bucketOf(v), log2BucketOf(v)) << v;
    for (unsigned i = 0; i < h.bucketCount(); ++i) {
        EXPECT_EQ(h.bucketLow(i), log2BucketLow(i)) << i;
        EXPECT_EQ(h.bucketHigh(i), log2BucketHigh(i)) << i;
    }

    // k = 7: 58 octave rows of 128 buckets; exact below 128.
    const Histogram fine(7);
    EXPECT_EQ(fine.bucketCount(), 58u * 128u);
    for (std::uint64_t v = 0; v < 128; ++v) {
        EXPECT_EQ(fine.bucketOf(v), v);
        EXPECT_EQ(fine.bucketLow(static_cast<unsigned>(v)), v);
        EXPECT_EQ(fine.bucketHigh(static_cast<unsigned>(v)), v);
    }
    // [128, 256) still has width 1; [256, 512) has width 2.
    EXPECT_EQ(fine.bucketOf(255), 255u);
    EXPECT_EQ(fine.bucketOf(256), 256u);
    EXPECT_EQ(fine.bucketOf(257), 256u);
    EXPECT_EQ(fine.bucketOf(258), 257u);
    EXPECT_EQ(fine.bucketLow(256), 256u);
    EXPECT_EQ(fine.bucketHigh(256), 257u);
    EXPECT_EQ(fine.bucketOf(~std::uint64_t{0}), fine.bucketCount() - 1);
    EXPECT_EQ(fine.bucketHigh(fine.bucketCount() - 1),
              ~std::uint64_t{0});
    // Buckets tile the value range: each starts where the last ended.
    for (unsigned i = 1; i < fine.bucketCount(); ++i) {
        ASSERT_EQ(fine.bucketLow(i), fine.bucketHigh(i - 1) + 1) << i;
        ASSERT_EQ(fine.bucketOf(fine.bucketLow(i)), i);
        ASSERT_EQ(fine.bucketOf(fine.bucketHigh(i)), i);
    }
}

TEST(Stats, HistogramPercentileReturnsBucketRightEdge)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 8; ++v)
        h.sample(v); // buckets: 1:[1] 2:[2,3] 3:[4..7] 4:[8..15]
    // rank = ceil(p * 8): p50 -> 4th smallest (value 4, bucket 3,
    // right edge 7); p95/p99 -> 8th smallest (value 8, edge 15).
    // The right edge never understates the true percentile; the old
    // left edge could halve it.
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 7.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 15.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 15.0);
    // p at or below the first sample's bucket share returns its edge.
    EXPECT_DOUBLE_EQ(h.percentile(0.125), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 15.0);
    // Out-of-range p clamps instead of reading past the buckets.
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(2.0), 15.0);

    // k = 7 resolves the same samples exactly, with the same ranks.
    Histogram fine(7);
    for (std::uint64_t v = 1; v <= 8; ++v)
        fine.sample(v);
    EXPECT_DOUBLE_EQ(fine.percentile(0.50), 4.0);
    EXPECT_DOUBLE_EQ(fine.percentile(0.95), 8.0);
    EXPECT_DOUBLE_EQ(fine.percentile(0.125), 1.0);
    EXPECT_DOUBLE_EQ(fine.percentile(-1.0), 1.0);
    EXPECT_DOUBLE_EQ(fine.percentile(2.0), 8.0);
    // 1000 sits in [1000, 1003], a width-4 bucket of [512, 1024).
    fine.sample(1000);
    EXPECT_DOUBLE_EQ(fine.percentile(1.0), 1003.0);
}

TEST(Stats, HistogramPercentileNeverUnderstates)
{
    // The reported percentile must upper-bound the exact one for
    // every sampled value and every p (the bug this guards against
    // reported the bucket floor, up to 2x low).
    Histogram h;
    const std::uint64_t values[] = {1, 3, 7, 12, 100, 1000, 4096};
    for (std::uint64_t v : values)
        h.sample(v);
    const std::size_t n = std::size(values);
    for (std::size_t rank = 1; rank <= n; ++rank) {
        const double p =
            static_cast<double>(rank) / static_cast<double>(n);
        EXPECT_GE(h.percentile(p),
                  static_cast<double>(values[rank - 1]))
            << "p=" << p;
    }
    // Monotone in p.
    for (double p = 0.05; p < 1.0; p += 0.05)
        EXPECT_LE(h.percentile(p), h.percentile(p + 0.05)) << p;

    // k = 7 on random samples spanning nine decades: the percentile
    // lies between the nearest-rank sample and 1/128 above it.
    Random rng(7);
    for (const std::size_t count : {1u, 2u, 99u, 100u, 1000u, 4099u}) {
        Histogram fine(7);
        std::vector<std::uint64_t> samples;
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t v =
                rng.nextBounded(1000) << rng.nextBounded(30);
            samples.push_back(v);
            fine.sample(v);
        }
        std::sort(samples.begin(), samples.end());
        for (const double p : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99,
                               0.999, 1.0}) {
            const auto rank = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::ceil(p * static_cast<double>(count))));
            const double v = static_cast<double>(samples[rank - 1]);
            EXPECT_GE(fine.percentile(p), v) << count << " p=" << p;
            EXPECT_LE(fine.percentile(p), v * (1.0 + 1.0 / 128.0))
                << count << " p=" << p;
        }
    }
}

TEST(Stats, HistogramPercentileEdgeCases)
{
    for (const unsigned k : {0u, 7u}) {
        Histogram empty(k);
        EXPECT_DOUBLE_EQ(empty.percentile(0.99), 0.0);
        EXPECT_EQ(empty.usedBuckets(), 0u);

        Histogram zeros(k);
        zeros.sample(0);
        zeros.sample(0);
        EXPECT_DOUBLE_EQ(zeros.percentile(0.99), 0.0); // zero bucket

        Histogram top(k);
        top.sample(~std::uint64_t{0});
        EXPECT_DOUBLE_EQ(top.percentile(0.5),
                         static_cast<double>(~std::uint64_t{0}));
        EXPECT_EQ(top.usedBuckets(), top.bucketCount());
    }

    Histogram one;
    one.sample(1000); // [512, 1024) -> right edge 1023
    EXPECT_DOUBLE_EQ(one.percentile(0.50), 1023.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.99), 1023.0);

    // Exact powers of two sit at their bucket's left edge; the
    // reported right edge still bounds them.
    Histogram pow2;
    pow2.sample(8); // [8,16) -> 15
    EXPECT_DOUBLE_EQ(pow2.percentile(1.0), 15.0);
    Histogram finePow2(7);
    finePow2.sample(std::uint64_t{1} << 20); // width 2^13
    EXPECT_DOUBLE_EQ(finePow2.percentile(1.0),
                     static_cast<double>((1u << 20) + (1u << 13) - 1));
}

TEST(Stats, HistogramMergeAddsBuckets)
{
    Histogram a, b;
    a.sample(1);
    a.sample(100);
    b.sample(1);
    b.sample(0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.bucket(0), 1u);
    EXPECT_EQ(a.bucket(1), 2u);
    EXPECT_EQ(a.bucket(a.bucketOf(100)), 1u);
    EXPECT_EQ(a.usedBuckets(), a.bucketOf(100) + 1);

    Histogram c(7), d(7);
    c.sample(5000);
    d.sample(5000);
    d.sample(3);
    c.merge(d);
    EXPECT_EQ(c.count(), 3u);
    EXPECT_EQ(c.bucket(c.bucketOf(5000)), 2u);
    EXPECT_EQ(c.bucket(3), 1u);
    EXPECT_DOUBLE_EQ(c.percentile(0.0), 3.0);
}

TEST(Stats, HistogramResetClearsTheUsedRange)
{
    Histogram h(7);
    h.sample(10);
    h.sample(1u << 30);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.usedBuckets(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
    for (unsigned i = 0; i < h.bucketCount(); ++i)
        ASSERT_EQ(h.bucket(i), 0u) << i;
    // Reusable after a reset: the used range restarts from scratch.
    h.sample(200);
    EXPECT_EQ(h.usedBuckets(), h.bucketOf(200) + 1);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 200.0);
}

TEST(StatsDeathTest, HistogramMergeAcrossLayoutsIsFatal)
{
    Histogram coarse;
    Histogram fine(7);
    EXPECT_DEATH(coarse.merge(fine), "sub-bucket bits");
    EXPECT_DEATH(fine.merge(coarse), "sub-bucket bits");
}

class EnvSeedTest : public ::testing::Test
{
  protected:
    void TearDown() override { unsetenv("RCNVM_SEED"); }
};

TEST_F(EnvSeedTest, UnsetReturnsFallback)
{
    unsetenv("RCNVM_SEED");
    EXPECT_EQ(envSeed(42), 42u);
    EXPECT_EQ(envUint64("RCNVM_SEED", 7), 7u);
}

TEST_F(EnvSeedTest, ParsesDecimalAndHex)
{
    setenv("RCNVM_SEED", "12345", 1);
    EXPECT_EQ(envSeed(42), 12345u);
    setenv("RCNVM_SEED", "0", 1);
    EXPECT_EQ(envSeed(42), 0u);
    setenv("RCNVM_SEED", "0xDEADbeef", 1);
    EXPECT_EQ(envSeed(42), 0xdeadbeefull);
    setenv("RCNVM_SEED", "18446744073709551615", 1); // UINT64_MAX
    EXPECT_EQ(envSeed(42), ~std::uint64_t{0});
}

using EnvSeedDeathTest = EnvSeedTest;

TEST_F(EnvSeedDeathTest, RejectsMalformedValues)
{
    // Each of these used to silently seed 0 (or a truncated prefix),
    // turning a typo into a different experiment.
    const char *bad[] = {"garbage", "123abc", "",     " 5",
                         "5 ",      "-1",     "+7",   "0x",
                         "0xfg",    "1e3",    "12.5"};
    for (const char *v : bad) {
        setenv("RCNVM_SEED", v, 1);
        EXPECT_EXIT(envSeed(42), ::testing::ExitedWithCode(1),
                    "RCNVM_SEED")
            << "value: \"" << v << '"';
    }
}

TEST_F(EnvSeedDeathTest, RejectsOverflow)
{
    setenv("RCNVM_SEED", "18446744073709551616", 1); // 2^64
    EXPECT_EXIT(envSeed(42), ::testing::ExitedWithCode(1),
                "overflows");
}

TEST(ParseUint64Test, AcceptsDecimalAndHex)
{
    std::uint64_t v = 0;
    EXPECT_EQ(parseUint64("0", v), ParseUint::Ok);
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(parseUint64("12345", v), ParseUint::Ok);
    EXPECT_EQ(v, 12345u);
    EXPECT_EQ(parseUint64("0xDEADbeef", v), ParseUint::Ok);
    EXPECT_EQ(v, 0xdeadbeefull);
    EXPECT_EQ(parseUint64("18446744073709551615", v),
              ParseUint::Ok);
    EXPECT_EQ(v, ~std::uint64_t{0});
}

TEST(ParseUint64Test, ClassifiesMalformedAndOverflow)
{
    std::uint64_t v = 0;
    const char *malformed[] = {"",    " 5",  "5 ",  "-1",  "+7",
                               "0x",  "0xfg", "1e3", "12.5",
                               "123abc", "garbage"};
    for (const char *text : malformed) {
        EXPECT_EQ(parseUint64(text, v), ParseUint::Malformed)
            << "text: \"" << text << '"';
    }
    EXPECT_EQ(parseUint64("18446744073709551616", v),
              ParseUint::Overflow);
    EXPECT_EQ(parseUint64("0x10000000000000000", v),
              ParseUint::Overflow);
}

TEST(TablePrinterTest, FormatsAlignedColumns)
{
    TablePrinter t("demo");
    t.addRow({"name", "value"});
    t.addRow({"long-name-here", "1"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("long-name-here"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinterTest, NumPrecision)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

Generator<int>
countTo(int lo, int hi)
{
    for (int i = lo; i < hi; ++i)
        co_yield i;
}

/** 0, then [1, 3) spliced from a nested generator, then an empty
 *  one, then 10 and [20, 22) two levels deep. */
Generator<int>
spliced()
{
    co_yield 0;
    co_yield countTo(1, 3);
    co_yield countTo(5, 5);
    co_yield 10;
    co_yield []() -> Generator<int> { co_yield countTo(20, 22); }();
}

std::vector<int>
drainAll(Generator<int> g)
{
    std::vector<int> out;
    while (const int *v = g.next())
        out.push_back(*v);
    return out;
}

TEST(GeneratorTest, SplicesNestedGeneratorsInOrder)
{
    EXPECT_EQ(drainAll(spliced()),
              (std::vector<int>{0, 1, 2, 10, 20, 21}));
    EXPECT_TRUE(drainAll(countTo(3, 3)).empty());
    EXPECT_TRUE(drainAll(Generator<int>{}).empty());
    // Batch boundaries: exactly one batch, and one element past two.
    constexpr int batch = Generator<int>::kBatch;
    EXPECT_EQ(drainAll(countTo(0, batch)).size(), std::size_t{batch});
    EXPECT_EQ(drainAll(countTo(0, 2 * batch + 1)).back(), 2 * batch);
}

TEST(GeneratorTest, DrainIntoContinuesAfterNext)
{
    Generator<int> g = spliced();
    ASSERT_EQ(*g.next(), 0);
    ASSERT_EQ(*g.next(), 1);
    std::vector<int> rest = {-1};
    g.drainInto(rest);
    EXPECT_EQ(rest, (std::vector<int>{-1, 2, 10, 20, 21}));
    EXPECT_EQ(g.next(), nullptr);

    // Suspended mid-stream: the drain resumes it to the end.
    Generator<int> long_run = countTo(0, 100);
    ASSERT_EQ(*long_run.next(), 0);
    std::vector<int> tail;
    long_run.drainInto(tail);
    ASSERT_EQ(tail.size(), 99u);
    EXPECT_EQ(tail.front(), 1);
    EXPECT_EQ(tail.back(), 99);
}

TEST(GeneratorTest, IsLazyAndStaysExhausted)
{
    int started = 0;
    auto g = [](int &flag) -> Generator<int> {
        ++flag;
        co_yield 7;
    }(started);
    EXPECT_EQ(started, 0); // nothing runs before the first next()
    ASSERT_NE(g.next(), nullptr);
    EXPECT_EQ(started, 1);
    EXPECT_EQ(g.next(), nullptr);
    EXPECT_EQ(g.next(), nullptr);
}

TEST(GeneratorTest, DestroyingMidStreamFreesNestedFrames)
{
    // Suspended two levels deep; the sanitizer builds check that
    // both frames are freed.
    auto g = []() -> Generator<int> {
        co_yield countTo(0, 100);
    }();
    ASSERT_NE(g.next(), nullptr);
    Generator<int> moved = std::move(g);
    EXPECT_EQ(g.next(), nullptr);
    EXPECT_EQ(*moved.next(), 1);
}

TEST(Logging, LevelRoundTrip)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(before);
}

} // namespace
} // namespace rcnvm::util
