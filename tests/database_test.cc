/**
 * @file
 * Tests for data placement: word addressing in both orientations,
 * field-scan and tuple-fetch line generation, physical scans,
 * gather eligibility, and the row/column duality invariants that
 * the whole RC-NVM design rests on.
 */

#include <gtest/gtest.h>

#include <set>

#include "imdb/database.hh"
#include "imdb/plan_builder.hh"

namespace rcnvm::imdb {
namespace {

struct RcFixture {
    mem::AddressMap map{mem::Geometry::rcNvm()};
    Table table{"t", Schema::uniform(16), 4096, 21};
    Database db{mem::DeviceKind::RcNvm, map};
    Database::TableId tid = db.addTable(&table,
                                        ChunkLayout::ColumnOriented);
};

struct DramFixture {
    mem::AddressMap map{mem::Geometry::dram()};
    Table table{"t", Schema::uniform(16), 4096, 21};
    Database db{mem::DeviceKind::Dram, map};
    Database::TableId tid = db.addTable(&table,
                                        ChunkLayout::RowOriented);
};

TEST(DatabaseTest, CapabilitiesFollowDevice)
{
    RcFixture rc;
    DramFixture dram;
    EXPECT_TRUE(rc.db.columnCapable());
    EXPECT_FALSE(dram.db.columnCapable());
    EXPECT_EQ(rc.db.deviceKind(), mem::DeviceKind::RcNvm);
}

TEST(DatabaseTest, DualAddressesNameTheSameCell)
{
    // The fundamental invariant: a word's row-oriented and
    // column-oriented addresses convert into each other through
    // the Figure-7 field swap.
    RcFixture f;
    for (std::uint64_t t = 0; t < 4096; t += 97) {
        for (unsigned w = 0; w < 16; w += 3) {
            const Addr row =
                f.db.wordAddr(f.tid, t, w, Orientation::Row);
            const Addr col =
                f.db.wordAddr(f.tid, t, w, Orientation::Column);
            EXPECT_EQ(f.map.convert(row, Orientation::Row,
                                    Orientation::Column),
                      col);
        }
    }
}

TEST(DatabaseTest, DistinctWordsGetDistinctAddresses)
{
    RcFixture f;
    std::set<Addr> seen;
    for (std::uint64_t t = 0; t < 1024; ++t) {
        for (unsigned w = 0; w < 16; ++w) {
            const Addr a =
                f.db.wordAddr(f.tid, t, w, Orientation::Row);
            EXPECT_TRUE(seen.insert(a).second)
                << "duplicate address for tuple " << t << " word "
                << w;
        }
    }
}

TEST(DatabaseTest, RowStoreLayoutIsContiguousOnDram)
{
    // RowOriented chunks linearise to the classical row-store:
    // consecutive words of a tuple are 8 bytes apart in the block.
    DramFixture f;
    const mem::Geometry &g = f.map.geometry();
    for (std::uint64_t t = 0; t < 64; ++t) {
        for (unsigned w = 0; w + 1 < 16; ++w) {
            const Addr a =
                f.db.wordAddr(f.tid, t, w, Orientation::Row);
            const Addr b =
                f.db.wordAddr(f.tid, t, w + 1, Orientation::Row);
            const mem::DecodedAddr da =
                f.map.decode(a, Orientation::Row);
            const mem::DecodedAddr dbd =
                f.map.decode(b, Orientation::Row);
            // Same DRAM row unless we crossed a block boundary.
            if (da.col + 1 < g.colsPerSubarray) {
                EXPECT_EQ(dbd.col, da.col + 1);
                EXPECT_EQ(dbd.row, da.row);
            }
        }
    }
}

TEST(DatabaseTest, ColumnLayoutPutsFieldInOneColumnRun)
{
    // In the column-oriented layout one field of consecutive tuples
    // advances down a single physical direction, so its
    // column-oriented addresses are 8 bytes apart.
    RcFixture f;
    std::uint64_t stride_hits = 0;
    for (std::uint64_t t = 0; t + 1 < 4096; ++t) {
        // Unrotated chunks advance by 8 bytes in the column space;
        // rotated chunks advance by 8 bytes in the row space.
        const bool col_run =
            f.db.wordAddr(f.tid, t + 1, 9, Orientation::Column) ==
            f.db.wordAddr(f.tid, t, 9, Orientation::Column) + 8;
        const bool row_run =
            f.db.wordAddr(f.tid, t + 1, 9, Orientation::Row) ==
            f.db.wordAddr(f.tid, t, 9, Orientation::Row) + 8;
        if (col_run || row_run)
            ++stride_hits;
    }
    // Only chunk boundaries (3 of 4095 transitions) may break runs.
    EXPECT_GE(stride_hits, 4092u);
}

TEST(DatabaseTest, FieldScanCoversEveryTupleExactlyOnce)
{
    RcFixture f;
    std::vector<LineRef> lines;
    f.db.fieldScanLines(f.tid, 9, 0, 4096, lines);
    // Collect the lines each tuple's word should be in and verify
    // coverage.
    std::set<std::pair<Addr, Orientation>> have;
    for (const LineRef &l : lines)
        have.insert({l.addr, l.orient});
    for (std::uint64_t t = 0; t < 4096; ++t) {
        const Addr row =
            f.db.wordAddr(f.tid, t, 9, Orientation::Row) & ~63ull;
        const Addr col =
            f.db.wordAddr(f.tid, t, 9, Orientation::Column) &
            ~63ull;
        const bool covered =
            have.count({row, Orientation::Row}) ||
            have.count({col, Orientation::Column});
        EXPECT_TRUE(covered) << "tuple " << t << " not covered";
    }
}

TEST(DatabaseTest, FieldScanUsesColumnAccessOnRcNvm)
{
    RcFixture f;
    std::vector<LineRef> lines;
    f.db.fieldScanLines(f.tid, 0, 0, 1024, lines);
    // 1024 tuples x 8 B / 64 B = 128 lines for one chunk, all
    // oriented along the tuple axis.
    EXPECT_EQ(lines.size(), 128u);
}

TEST(DatabaseTest, FieldScanIsStridedOnDram)
{
    DramFixture f;
    std::vector<LineRef> lines;
    f.db.fieldScanLines(f.tid, 9, 0, 1024, lines);
    // Row-store DRAM: one 64-byte line per tuple (128 B stride).
    EXPECT_EQ(lines.size(), 1024u);
    for (const LineRef &l : lines)
        EXPECT_EQ(l.orient, Orientation::Row);
}

TEST(DatabaseTest, FieldScanRangeRespected)
{
    RcFixture f;
    std::vector<LineRef> lines;
    f.db.fieldScanLines(f.tid, 3, 512, 1536, lines);
    EXPECT_EQ(lines.size(), 128u); // 1024 tuples / 8 per line
}

TEST(DatabaseTest, EmptyScanEmitsNothing)
{
    RcFixture f;
    std::vector<LineRef> lines;
    f.db.fieldScanLines(f.tid, 3, 100, 100, lines);
    EXPECT_TRUE(lines.empty());
}

TEST(DatabaseTest, TupleLinesCoverWordSpan)
{
    RcFixture f;
    for (std::uint64_t t : {0ull, 17ull, 1023ull, 4095ull}) {
        std::vector<LineRef> lines;
        f.db.tupleLines(f.tid, t, 2, 4, lines); // f3, f4
        ASSERT_FALSE(lines.empty());
        // Both words must fall inside the emitted lines (same
        // orientation space).
        for (unsigned w = 2; w < 4; ++w) {
            const Orientation o = lines[0].orient;
            const Addr addr =
                f.db.wordAddr(f.tid, t, w, o) & ~63ull;
            bool found = false;
            for (const LineRef &l : lines)
                found |= l.addr == addr;
            EXPECT_TRUE(found);
        }
    }
}

TEST(DatabaseTest, TupleFetchIsOneLineForNarrowSpans)
{
    // A 2-word fetch never needs more than 2 lines.
    RcFixture f;
    for (std::uint64_t t = 0; t < 200; t += 7) {
        std::vector<LineRef> lines;
        f.db.tupleLines(f.tid, t, 2, 4, lines);
        EXPECT_LE(lines.size(), 2u);
        EXPECT_GE(lines.size(), 1u);
    }
}

TEST(DatabaseTest, PhysicalScanCoversWholeTable)
{
    RcFixture f;
    std::vector<LineRef> lines;
    f.db.physicalScan(f.tid, 0, ~std::uint64_t{0}).drainInto(lines);
    // 4096 tuples x 128 B / 64 B = 8192 lines, all row-oriented,
    // no duplicates.
    EXPECT_EQ(lines.size(), 8192u);
    std::set<Addr> unique;
    for (const LineRef &l : lines) {
        EXPECT_EQ(l.orient, Orientation::Row);
        EXPECT_TRUE(unique.insert(l.addr).second);
    }
}

TEST(DatabaseTest, PhysicalScanMatchesOnDramToo)
{
    DramFixture f;
    std::vector<LineRef> lines;
    f.db.physicalScan(f.tid, 0, ~std::uint64_t{0}).drainInto(lines);
    EXPECT_EQ(lines.size(), 8192u);
}

TEST(DatabaseTest, GatherableOnlyOnGsDramPowerOfTwo)
{
    mem::AddressMap map(mem::Geometry::dram());
    Table a16{"a", Schema::uniform(16), 1024, 1};
    Table b20{"b", Schema::uniform(20), 1024, 2};
    Database gs(mem::DeviceKind::GsDram, map);
    const auto ta = gs.addTable(&a16, ChunkLayout::RowOriented);
    const auto tb = gs.addTable(&b20, ChunkLayout::RowOriented);
    EXPECT_TRUE(gs.gatherable(ta, 9));
    EXPECT_FALSE(gs.gatherable(tb, 9)); // 20 words: not power of 2

    Database dram(mem::DeviceKind::Dram, map);
    const auto td = dram.addTable(&a16, ChunkLayout::RowOriented);
    EXPECT_FALSE(dram.gatherable(td, 9));
}

TEST(DatabaseTest, FieldLineCoversTupleGroup)
{
    RcFixture f;
    for (std::uint64_t g = 0; g < 4096; g += 8) {
        LineRef line;
        ASSERT_TRUE(f.db.fieldLine(f.tid, g, 9, line));
        // Every tuple in the group maps into this line.
        for (unsigned i = 0; i < 8; ++i) {
            const Addr a =
                f.db.wordAddr(f.tid, g + i, 9, line.orient);
            EXPECT_EQ(a & ~63ull, line.addr);
        }
    }
}

TEST(DatabaseTest, FieldLineUnavailableOnRowLayout)
{
    mem::AddressMap map(mem::Geometry::rcNvm());
    Table t{"t", Schema::uniform(16), 1024, 5};
    Database db(mem::DeviceKind::RcNvm, map);
    const auto tid = db.addTable(&t, ChunkLayout::RowOriented);
    LineRef line;
    EXPECT_FALSE(db.fieldLine(tid, 0, 0, line));
}

TEST(DatabaseTest, PackedPolicyMinimisesBins)
{
    mem::AddressMap map(mem::Geometry::rcNvm());
    Table t{"t", Schema::uniform(16), 65536, 5};
    Database packed(mem::DeviceKind::RcNvm, map,
                    PlacementPolicy::Packed);
    Database spread(mem::DeviceKind::RcNvm, map,
                    PlacementPolicy::Spread);
    packed.addTable(&t, ChunkLayout::ColumnOriented);
    spread.addTable(&t, ChunkLayout::ColumnOriented);
    // 64 chunks x 16 columns = exactly one 1024-wide subarray when
    // packed; one bin per bank when spread.
    EXPECT_EQ(packed.binsUsed(), 1u);
    EXPECT_EQ(spread.binsUsed(), 64u);
    EXPECT_GT(packed.packingUtilization(),
              spread.packingUtilization());
}

TEST(DatabaseTest, MultipleTablesShareBins)
{
    mem::AddressMap map(mem::Geometry::rcNvm());
    Table a{"a", Schema::uniform(16), 1024, 5};
    Table b{"b", Schema::uniform(20), 1024, 6};
    Database db(mem::DeviceKind::RcNvm, map,
                PlacementPolicy::Packed);
    const auto ta = db.addTable(&a, ChunkLayout::ColumnOriented);
    const auto tb = db.addTable(&b, ChunkLayout::ColumnOriented);
    EXPECT_EQ(db.binsUsed(), 1u);
    // Addresses must not collide.
    std::set<Addr> seen;
    for (std::uint64_t t = 0; t < 1024; ++t) {
        for (unsigned w = 0; w < 16; ++w) {
            EXPECT_TRUE(
                seen.insert(db.wordAddr(ta, t, w, Orientation::Row))
                    .second);
        }
        for (unsigned w = 0; w < 20; ++w) {
            EXPECT_TRUE(
                seen.insert(db.wordAddr(tb, t, w, Orientation::Row))
                    .second);
        }
    }
}

TEST(DatabaseDeathTest, ColumnAddressOnDramPanics)
{
    DramFixture f;
    EXPECT_DEATH(
        (void)f.db.wordAddr(f.tid, 0, 0, Orientation::Column),
        "row-only device");
}

TEST(DatabaseDeathTest, OverflowingDeviceIsFatal)
{
    // 4 GB of 8 MB bins = 512 bins; a 600-bin demand must die.
    mem::AddressMap map(mem::Geometry::rcNvm());
    Database db(mem::DeviceKind::RcNvm, map,
                PlacementPolicy::Packed);
    // One 8 KB payload per tuple: each 1024-tuple chunk fills a
    // whole bin, so 513 chunks exceed the 512 subarrays of the
    // 4 GB device.
    Table big{"big", Schema({Field{"payload", 8192}}),
              513ull * 1024, 1};
    EXPECT_EXIT(
        {
            const auto tid =
                db.addTable(&big, ChunkLayout::ColumnOriented);
            // Touch the last chunk to force address materialisation.
            (void)db.wordAddr(tid, big.tuples() - 1, 0,
                              Orientation::Row);
            std::exit(0);
        },
        ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace rcnvm::imdb
