/**
 * @file
 * Tests for the IMDB layer: schemas, synthetic tables, and the 2-D
 * online bin packer with rotation.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "fnv1a.hh"
#include "imdb/bin_packing.hh"
#include "imdb/schema.hh"
#include "imdb/table.hh"
#include "workload/tables.hh"

namespace rcnvm::imdb {
namespace {

TEST(SchemaTest, UniformSchemaOffsets)
{
    const Schema s = Schema::uniform(16);
    EXPECT_EQ(s.fieldCount(), 16u);
    EXPECT_EQ(s.tupleWords(), 16u);
    EXPECT_EQ(s.tupleBytes(), 128u);
    EXPECT_EQ(s.wordOffset(0), 0u);
    EXPECT_EQ(s.wordOffset(9), 9u); // f10 is word 9
    EXPECT_EQ(s.field(9).name, "f10");
}

TEST(SchemaTest, WideFieldsShiftOffsets)
{
    // table-c: f1, f2_wide (32 B), f3, f4, f5.
    const Schema s({Field{"f1", 8}, Field{"f2_wide", 32},
                    Field{"f3", 8}, Field{"f4", 8}, Field{"f5", 8}});
    EXPECT_EQ(s.fieldCount(), 5u);
    EXPECT_EQ(s.tupleWords(), 8u);
    EXPECT_EQ(s.wordOffset(1), 1u);
    EXPECT_EQ(s.fieldWords(1), 4u);
    EXPECT_EQ(s.wordOffset(2), 5u); // f3 after the wide field
}

TEST(SchemaTest, FieldIndexByName)
{
    const Schema s = Schema::uniform(20);
    EXPECT_EQ(s.fieldIndex("f1"), 0u);
    EXPECT_EQ(s.fieldIndex("f20"), 19u);
}

TEST(SchemaDeathTest, RejectsNonWordWidths)
{
    EXPECT_EXIT(Schema({Field{"bad", 7}}),
                ::testing::ExitedWithCode(1), "multiple of 8");
}

TEST(TableTest, DeterministicContents)
{
    const Table a("t", Schema::uniform(4), 128, 7);
    const Table b("t", Schema::uniform(4), 128, 7);
    for (unsigned f = 0; f < 4; ++f) {
        for (std::uint64_t t = 0; t < 128; ++t)
            EXPECT_EQ(a.value(f, t), b.value(f, t));
    }
}

TEST(TableTest, ValuesInDomain)
{
    const Table t("t", Schema::uniform(2), 1000, 3);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        EXPECT_GE(t.value(0, i), 0);
        EXPECT_LT(t.value(0, i), Table::valueRange);
    }
}

TEST(TableTest, SelectivityThresholds)
{
    const Table t("t", Schema::uniform(2), 20000, 11);
    for (const double sel : {0.1, 0.5, 0.9}) {
        const auto matches =
            t.matchGreater(0, t.thresholdForGreater(sel));
        std::uint64_t count = 0;
        for (const bool m : matches)
            count += m ? 1 : 0;
        EXPECT_NEAR(static_cast<double>(count) / 20000.0, sel, 0.03);
    }
}

TEST(TableTest, ThresholdEdgeCases)
{
    const Table t("t", Schema::uniform(1), 100, 1);
    EXPECT_EQ(t.thresholdForGreater(0.0), Table::valueRange);
    EXPECT_EQ(t.thresholdForGreater(1.0), -1);
}

TEST(TableTest, MatchPredicatesConsistent)
{
    const Table t("t", Schema::uniform(2), 500, 13);
    const auto gt = t.matchGreater(1, 50000);
    const auto lt = t.matchLess(1, 50000);
    const auto eq = t.matchEqual(1, 50000);
    for (std::uint64_t i = 0; i < 500; ++i) {
        const int total = (gt[i] ? 1 : 0) + (lt[i] ? 1 : 0) +
                          (eq[i] ? 1 : 0);
        EXPECT_EQ(total, 1); // trichotomy
    }
}

TEST(TableTest, StandardSetGolden)
{
    // DeterministicContents compares two fresh tables, which a
    // generator that changed its draws for both would still pass.
    // This pins the values themselves, and the chunk summaries the
    // plan optimizer prunes with.
    const workload::TableSet set =
        workload::TableSet::standard(4096, 256, 42);
    test::Fnv1a h;
    for (const Table *t :
         {set.a.get(), set.b.get(), set.c.get(), set.micro.get(),
          set.hash.get()}) {
        for (unsigned f = 0; f < t->schema().fieldCount(); ++f) {
            if (t->schema().field(f).words() != 1)
                continue;
            for (std::uint64_t i = 0; i < t->tuples(); ++i)
                h.word(static_cast<std::uint64_t>(t->value(f, i)));
            for (unsigned c = 0; c < t->chunkCount(); ++c) {
                const Table::ChunkMinMax mm = t->chunkStats(f, c);
                h.word(static_cast<std::uint64_t>(mm.min));
                h.word(static_cast<std::uint64_t>(mm.max));
            }
        }
    }
    EXPECT_EQ(h.hash, 16399872357338830563ull);
}

TEST(TableDeathTest, WideFieldHasNoValues)
{
    const Table t("t",
                  Schema({Field{"f1", 8}, Field{"wide", 16}}), 10,
                  1);
    EXPECT_EQ(t.value(0, 0) >= 0, true);
    EXPECT_EXIT((void)t.value(1, 0), ::testing::ExitedWithCode(1),
                "no numeric values");
}

// ---------------------------------------------------------------
// Bin packing.
// ---------------------------------------------------------------

TEST(BinPackerTest, SingleItemAtOrigin)
{
    BinPacker p(1024);
    const PackSlot s = p.insert(16, 1024);
    EXPECT_EQ(s.bin, 0u);
    EXPECT_EQ(p.binsUsed(), 1u);
}

TEST(BinPackerTest, ItemsPackSideBySide)
{
    BinPacker p(1024, /*allow_rotation=*/false);
    const PackSlot a = p.insert(100, 200);
    const PackSlot b = p.insert(100, 200);
    EXPECT_EQ(a.bin, b.bin);
    EXPECT_EQ(a.y, b.y);
    EXPECT_NE(a.x, b.x);
}

TEST(BinPackerTest, TallItemsRotateToLieFlat)
{
    BinPacker p(1024, /*allow_rotation=*/true);
    const PackSlot s = p.insert(16, 1024); // tall chunk
    EXPECT_TRUE(s.rotated);
}

TEST(BinPackerTest, RotationDisabledKeepsOrientation)
{
    BinPacker p(1024, /*allow_rotation=*/false);
    const PackSlot s = p.insert(16, 1024);
    EXPECT_FALSE(s.rotated);
}

TEST(BinPackerTest, RotationPacksTighter)
{
    // 64 tall 16x1024 chunks: rotated they stack as 64 shelves of
    // height 16 in one bin; unrotated they fill one bin side by
    // side as well -- but a mix of 512-tall items shows the gain.
    BinPacker with(1024, true);
    BinPacker without(1024, false);
    for (int i = 0; i < 48; ++i) {
        with.insert(40, 512);
        without.insert(40, 512);
    }
    EXPECT_LE(with.binsUsed(), without.binsUsed());
}

TEST(BinPackerTest, OpensNewBinWhenFull)
{
    BinPacker p(1024, false);
    for (int i = 0; i < 2; ++i)
        p.insert(1024, 1024);
    EXPECT_EQ(p.binsUsed(), 2u);
}

TEST(BinPackerTest, UtilizationFullBins)
{
    BinPacker p(1024, false);
    p.insert(1024, 1024);
    EXPECT_DOUBLE_EQ(p.utilization(), 1.0);
    p.insert(1024, 512);
    EXPECT_DOUBLE_EQ(p.utilization(), 0.75);
}

TEST(BinPackerTest, EmptyUtilizationIsZero)
{
    BinPacker p(1024);
    EXPECT_DOUBLE_EQ(p.utilization(), 0.0);
}

TEST(BinPackerTest, InsertAtTargetsRequestedBin)
{
    BinPacker p(1024, true);
    for (unsigned b = 0; b < 8; ++b) {
        const auto slot = p.insertAt(b, 16, 1024);
        ASSERT_TRUE(slot.has_value());
        EXPECT_EQ(slot->bin, b);
    }
    EXPECT_EQ(p.binsUsed(), 8u);
}

TEST(BinPackerTest, InsertAtStacksWithinOneBin)
{
    BinPacker p(1024, true);
    std::set<unsigned> ys;
    for (int i = 0; i < 4; ++i) {
        const auto slot = p.insertAt(3, 16, 1024);
        ASSERT_TRUE(slot.has_value());
        EXPECT_EQ(slot->bin, 3u);
        ys.insert(slot->y);
    }
    EXPECT_EQ(ys.size(), 4u); // four shelves, no overlap
}

TEST(BinPackerTest, InsertAtRefusesWhenBinFull)
{
    BinPacker p(1024, false);
    ASSERT_TRUE(p.insertAt(0, 1024, 1024).has_value());
    EXPECT_FALSE(p.insertAt(0, 1, 1).has_value());
}

TEST(BinPackerTest, ItemsNeverOverlap)
{
    // Property: no two placed rectangles in the same bin intersect.
    BinPacker p(1024, true);
    struct Rect {
        unsigned bin, x, y, w, h;
    };
    std::vector<Rect> rects;
    const unsigned sizes[][2] = {{16, 1024}, {20, 1024}, {100, 30},
                                 {1024, 8},  {512, 512}, {7, 7},
                                 {300, 200}, {1, 1024},  {1024, 1}};
    for (int round = 0; round < 10; ++round) {
        for (const auto &wh : sizes) {
            const PackSlot s = p.insert(wh[0], wh[1]);
            const unsigned w = s.rotated ? wh[1] : wh[0];
            const unsigned h = s.rotated ? wh[0] : wh[1];
            EXPECT_LE(s.x + w, 1024u);
            EXPECT_LE(s.y + h, 1024u);
            rects.push_back(Rect{s.bin, s.x, s.y, w, h});
        }
    }
    for (std::size_t i = 0; i < rects.size(); ++i) {
        for (std::size_t j = i + 1; j < rects.size(); ++j) {
            const Rect &a = rects[i];
            const Rect &b = rects[j];
            if (a.bin != b.bin)
                continue;
            const bool disjoint = a.x + a.w <= b.x ||
                                  b.x + b.w <= a.x ||
                                  a.y + a.h <= b.y ||
                                  b.y + b.h <= a.y;
            EXPECT_TRUE(disjoint)
                << "rects " << i << " and " << j << " overlap";
        }
    }
}

TEST(BinPackerDeathTest, OversizedItemIsFatal)
{
    BinPacker p(1024);
    EXPECT_EXIT(p.insert(1025, 10), ::testing::ExitedWithCode(1),
                "does not fit");
    EXPECT_EXIT(p.insert(0, 10), ::testing::ExitedWithCode(1),
                "does not fit");
}

} // namespace
} // namespace rcnvm::imdb
