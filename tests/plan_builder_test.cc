/**
 * @file
 * Tests for the plan-building primitives (the imdb::ops generators,
 * drained into plans): scan/fetch/store op generation, gather usage,
 * hash access, and the group-caching transform structure.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "imdb/plan_builder.hh"

namespace rcnvm::imdb {
namespace {

using cpu::drain;
using cpu::MemOp;
using cpu::OpKind;

unsigned
countKind(const cpu::AccessPlan &plan, OpKind kind)
{
    return static_cast<unsigned>(
        std::count_if(plan.begin(), plan.end(),
                      [kind](const MemOp &op) {
                          return op.kind == kind;
                      }));
}

struct RcFixture {
    mem::AddressMap map{mem::Geometry::rcNvm()};
    Table table{"t", Schema::uniform(16), 2048, 31};
    Database db{mem::DeviceKind::RcNvm, map};
    Database::TableId tid =
        db.addTable(&table, ChunkLayout::ColumnOriented);
};

struct GsFixture {
    mem::AddressMap map{mem::Geometry::dram()};
    Table table{"t", Schema::uniform(16), 2048, 31};
    Database db{mem::DeviceKind::GsDram, map};
    Database::TableId tid =
        db.addTable(&table, ChunkLayout::RowOriented);
};

TEST(PlanBuilderTest, ComputeSplitsHugeCounts)
{
    const auto plan = drain(ops::compute(0x100000001ull));
    EXPECT_EQ(plan.size(), 2u);
    std::uint64_t total = 0;
    for (const MemOp &op : plan)
        total += op.computeCycles;
    EXPECT_EQ(total, 0x100000001ull);
}

TEST(PlanBuilderTest, ScanEmitsColumnLoadsOnRcNvm)
{
    RcFixture f;
    const auto plan = drain(ops::scanFieldWord(f.db, f.tid, 9, 0, 1024, 1));
    // Rotated chunks scan via row loads, unrotated via cloads; in
    // either case 128 memory ops plus one compute each.
    const unsigned memops =
        countKind(plan, OpKind::CLoad) + countKind(plan, OpKind::Load);
    EXPECT_EQ(memops, 128u);
    EXPECT_EQ(countKind(plan, OpKind::Compute), 128u);
}

TEST(PlanBuilderTest, ScanComputeScalesWithValuesPerLine)
{
    RcFixture f;
    const auto plan = drain(ops::scanFieldWord(f.db, f.tid, 9, 0, 1024, 2));
    for (const MemOp &op : plan) {
        if (op.kind == OpKind::Compute) {
            EXPECT_EQ(op.computeCycles, 16u); // 8 values x 2 cycles
        }
    }
}

TEST(PlanBuilderTest, GatherScanUsesGLoads)
{
    GsFixture f;
    const auto plan = drain(ops::scanFieldWord(f.db, f.tid, 9, 0, 1024, 1));
    EXPECT_EQ(countKind(plan, OpKind::GLoad), 128u); // 1024 / 8
    EXPECT_EQ(countKind(plan, OpKind::Load), 0u);
}

TEST(PlanBuilderTest, GatherHandlesUnalignedTail)
{
    GsFixture f;
    const auto plan = drain(ops::scanFieldWord(f.db, f.tid, 9, 0, 1021, 0));
    EXPECT_EQ(countKind(plan, OpKind::GLoad), 127u);
    EXPECT_EQ(countKind(plan, OpKind::Load), 5u); // 1016..1020
}

TEST(PlanBuilderTest, FetchTuplesDeduplicatesSharedLines)
{
    RcFixture f;
    // Adjacent tuples in a column-oriented chunk share row lines
    // only when they map to the same 64-byte span; fetching the
    // same tuple twice must certainly dedupe.
    const auto once = drain(ops::fetchTuples(f.db, f.tid, {5, 5}, 2, 4, 0));
    const auto single = drain(ops::fetchTuples(f.db, f.tid, {5}, 2, 4, 0));
    EXPECT_EQ(once.size(), single.size());
}

TEST(PlanBuilderTest, FetchAttachesComputePerTuple)
{
    RcFixture f;
    const auto plan =
        drain(ops::fetchTuples(f.db, f.tid, {1, 100, 1000}, 0, 2, 7));
    EXPECT_EQ(countKind(plan, OpKind::Compute), 3u);
}

TEST(PlanBuilderTest, StoreFieldUsesColumnSpaceOnColumnLayout)
{
    RcFixture f;
    const auto plan = drain(ops::storeFieldWord(f.db, f.tid, {0, 1, 2}, 8));
    EXPECT_EQ(countKind(plan, OpKind::CStore), 3u);
    EXPECT_EQ(countKind(plan, OpKind::Store), 0u);
    for (const MemOp &op : plan)
        EXPECT_EQ(op.bytes, 8u);
}

TEST(PlanBuilderTest, StoreFieldUsesRowSpaceOnDram)
{
    GsFixture f;
    const auto plan = drain(ops::storeFieldWord(f.db, f.tid, {0, 1, 2}, 8));
    EXPECT_EQ(countKind(plan, OpKind::Store), 3u);
}

TEST(PlanBuilderTest, HashAccessEmitsWordOps)
{
    RcFixture f;
    Table hash{"h", Schema::uniform(2), 4096, 3};
    const auto hid = f.db.addTable(&hash, ChunkLayout::RowOriented);
    const auto plan =
        drain(ops::hashAccess(f.db, hid, {7, 99, 1000}, true, 6));
    EXPECT_EQ(countKind(plan, OpKind::Store), 3u);
    EXPECT_EQ(countKind(plan, OpKind::Compute), 3u);
    EXPECT_EQ(countKind(drain(ops::hashAccess(f.db, hid, {7}, false, 0)),
                        OpKind::Load),
              1u);
}

TEST(PlanBuilderTest, OrderedScanWithoutGroupingInterleaves)
{
    RcFixture f;
    const auto plan = drain(
        ops::orderedMultiColumnScan(f.db, f.tid, {2, 5, 9}, 0, 64, 0, 1));
    // 8 groups x 3 columns of line reads; no pins, no fences.
    const unsigned memops =
        countKind(plan, OpKind::CLoad) + countKind(plan, OpKind::Load);
    EXPECT_EQ(memops, 24u);
    EXPECT_EQ(countKind(plan, OpKind::Pin), 0u);
    EXPECT_EQ(countKind(plan, OpKind::Fence), 0u);
    EXPECT_EQ(countKind(plan, OpKind::Compute), 8u);
}

TEST(PlanBuilderTest, GroupCachingAddsPrefetchPinUnpin)
{
    RcFixture f;
    const auto plan = drain(ops::orderedMultiColumnScan(
        f.db, f.tid, {2, 5, 9}, 0, 1024, 32, 1));
    // 4 batches of 256 tuples: each has 3x32 prefetch lines, one
    // fence, 3 pins, 96 consumption reads, 3 unpins.
    EXPECT_EQ(countKind(plan, OpKind::Fence), 4u);
    EXPECT_EQ(countKind(plan, OpKind::Pin), 12u);
    EXPECT_EQ(countKind(plan, OpKind::Unpin), 12u);
    EXPECT_EQ(countKind(plan, OpKind::CPrefetch), 4u * 96u);
    const unsigned consumed =
        countKind(plan, OpKind::CLoad) + countKind(plan, OpKind::Load);
    EXPECT_EQ(consumed, 4u * 96u);
}

TEST(PlanBuilderTest, OrderedScanFallsBackOnRowLayout)
{
    mem::AddressMap map(mem::Geometry::rcNvm());
    Table t{"t", Schema::uniform(16), 512, 3};
    Database db(mem::DeviceKind::RcNvm, map);
    const auto tid = db.addTable(&t, ChunkLayout::RowOriented);
    const auto plan = drain(
        ops::orderedMultiColumnScan(db, tid, {2, 5, 9}, 0, 512, 64, 1));
    // Fallback: per-tuple row fetches, no pins.
    EXPECT_EQ(countKind(plan, OpKind::Pin), 0u);
    EXPECT_GT(countKind(plan, OpKind::Load) +
                  countKind(plan, OpKind::CLoad),
              0u);
}

TEST(PlanBuilderTest, EmitLinesRespectsOrientationAndWrites)
{
    const std::vector<LineRef> lines = {
        {0x0, Orientation::Row},
        {0x40, Orientation::Column},
    };
    const auto plan = drain(ops::emitLines(lines, true, 0));
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].kind, OpKind::Store);
    EXPECT_EQ(plan[1].kind, OpKind::CStore);
    EXPECT_EQ(plan[0].bytes, 64u);
}

} // namespace
} // namespace rcnvm::imdb
