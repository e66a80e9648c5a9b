/**
 * @file
 * Tests for the Table-2 workload: query specs, compilation on every
 * device, phase structure, and the micro-benchmark generator.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.hh"
#include "workload/micro.hh"
#include "workload/queries.hh"

namespace rcnvm::workload {
namespace {

struct Fixture {
    TableSet tables = TableSet::standard(4096, 2048, 7);
    QueryWorkload workload{tables};
};

const std::vector<QueryId> &
allIds()
{
    static const std::vector<QueryId> ids = {
        QueryId::Q1,  QueryId::Q2,  QueryId::Q3,  QueryId::Q4,
        QueryId::Q5,  QueryId::Q6,  QueryId::Q7,  QueryId::Q8,
        QueryId::Q9,  QueryId::Q10, QueryId::Q11, QueryId::Q12,
        QueryId::Q13, QueryId::Q14, QueryId::Q15,
    };
    return ids;
}

TEST(QuerySpecs, FifteenQueriesInTable2)
{
    EXPECT_EQ(allQueries().size(), 15u);
    EXPECT_STREQ(querySpec(QueryId::Q1).name, "Q1");
    EXPECT_STREQ(querySpec(QueryId::Q15).name, "Q15");
    for (const QuerySpec &spec : allQueries()) {
        EXPECT_NE(spec.sql, nullptr);
        EXPECT_GT(std::string(spec.sql).size(), 10u);
    }
}

TEST(QuerySpecs, SuiteSizeConstantsMatchTable2)
{
    // The engine compiles all of Table 2; the timed suite is the
    // prefix that excludes the Q14/Q15 group-caching studies.
    EXPECT_EQ(allQueries().size(), kQueryCount);
    EXPECT_LT(kTimedQueryCount, kQueryCount);
    for (unsigned i = 0; i < kTimedQueryCount; ++i) {
        EXPECT_STRNE(allQueries()[i].category, "group-caching")
            << allQueries()[i].name;
    }
    EXPECT_STREQ(allQueries()[kTimedQueryCount].category,
                 "group-caching");
    EXPECT_STREQ(allQueries()[kQueryCount - 1].category,
                 "group-caching");
}

TEST(TableSetTest, StandardTablesMatchSection62)
{
    Fixture f;
    EXPECT_EQ(f.tables.a->schema().fieldCount(), 16u);
    EXPECT_EQ(f.tables.b->schema().fieldCount(), 20u);
    EXPECT_EQ(f.tables.c->schema().fieldCount(), 5u);
    // table-c has the wide field spanning several words.
    EXPECT_GT(f.tables.c->schema().fieldWords(1), 1u);
    EXPECT_EQ(f.tables.a->tuples(), 4096u);
    EXPECT_EQ(f.tables.micro->tuples(), 2048u);
}

class CompileOnDevice
    : public ::testing::TestWithParam<mem::DeviceKind>
{
  protected:
    Fixture f_;
};

TEST_P(CompileOnDevice, AllQueriesCompileNonEmpty)
{
    const mem::DeviceKind kind = GetParam();
    mem::AddressMap map(mem::geometryFor(kind));
    const PlacedDatabase pd = f_.workload.place(kind, map);
    for (const QueryId id : allIds()) {
        const CompiledQuery q = f_.workload.compile(id, pd, 4);
        EXPECT_FALSE(q.phases.empty())
            << querySpec(id).name << " on " << mem::toString(kind);
        EXPECT_GT(q.totalOps(), 0u) << querySpec(id).name;
        for (const auto &phase : q.phases)
            EXPECT_EQ(phase.size(), 4u); // one plan per core
    }
}

TEST_P(CompileOnDevice, JoinsHaveThreePhases)
{
    const mem::DeviceKind kind = GetParam();
    mem::AddressMap map(mem::geometryFor(kind));
    const PlacedDatabase pd = f_.workload.place(kind, map);
    EXPECT_EQ(f_.workload.compile(QueryId::Q8, pd).phases.size(), 3u);
    EXPECT_EQ(f_.workload.compile(QueryId::Q9, pd).phases.size(), 3u);
    EXPECT_EQ(f_.workload.compile(QueryId::Q1, pd).phases.size(), 1u);
}

TEST_P(CompileOnDevice, ColumnOpsOnlyOnRcNvm)
{
    const mem::DeviceKind kind = GetParam();
    mem::AddressMap map(mem::geometryFor(kind));
    const PlacedDatabase pd = f_.workload.place(kind, map);
    for (const QueryId id : allIds()) {
        const CompiledQuery q = f_.workload.compile(id, pd, 2);
        for (const auto &phase : q.phases) {
            for (const auto &plan : phase) {
                for (const auto &op : plan) {
                    if (op.kind == cpu::OpKind::CLoad ||
                        op.kind == cpu::OpKind::CStore) {
                        EXPECT_EQ(kind, mem::DeviceKind::RcNvm);
                    }
                    if (op.kind == cpu::OpKind::GLoad) {
                        EXPECT_EQ(kind, mem::DeviceKind::GsDram);
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Devices, CompileOnDevice,
    ::testing::Values(mem::DeviceKind::RcNvm, mem::DeviceKind::Rram,
                      mem::DeviceKind::Dram,
                      mem::DeviceKind::GsDram),
    [](const auto &info) {
        return std::string(mem::toString(info.param)) == "RC-NVM"
                   ? "RcNvm"
                   : std::string(mem::toString(info.param)) == "RRAM"
                         ? "Rram"
                         : std::string(mem::toString(
                               info.param)) == "DRAM"
                               ? "Dram"
                               : "GsDram";
    });

TEST(WorkloadTest, GroupLinesParameterChangesPlan)
{
    Fixture f;
    mem::AddressMap map(mem::geometryFor(mem::DeviceKind::RcNvm));
    const PlacedDatabase pd =
        f.workload.place(mem::DeviceKind::RcNvm, map);
    const auto without = f.workload.compile(QueryId::Q14, pd, 4, 0);
    const auto with = f.workload.compile(QueryId::Q14, pd, 4, 32);
    EXPECT_GT(with.totalOps(), without.totalOps());
}

TEST(WorkloadTest, GsDramUsesGathersOnTableA)
{
    Fixture f;
    mem::AddressMap map(mem::geometryFor(mem::DeviceKind::GsDram));
    const PlacedDatabase pd =
        f.workload.place(mem::DeviceKind::GsDram, map);
    const auto q6 = f.workload.compile(QueryId::Q6, pd, 1);
    unsigned gathers = 0;
    for (const auto &op : q6.phases[0][0])
        gathers += op.kind == cpu::OpKind::GLoad ? 1 : 0;
    EXPECT_GT(gathers, 0u);
    // Q7 runs on table-b (20 fields, not a power of two): no
    // gathers possible.
    const auto q7 = f.workload.compile(QueryId::Q7, pd, 1);
    for (const auto &op : q7.phases[0][0])
        EXPECT_NE(op.kind, cpu::OpKind::GLoad);
}

TEST(WorkloadTest, MicroBenchNames)
{
    EXPECT_STREQ(toString(MicroBench::RowRead), "row-read");
    EXPECT_STREQ(toString(MicroBench::ColWrite), "col-write");
}

TEST(WorkloadTest, MicroPlansCoverTable)
{
    Fixture f;
    mem::AddressMap map(mem::geometryFor(mem::DeviceKind::RcNvm));
    imdb::Database db(mem::DeviceKind::RcNvm, map);
    const auto tid = db.addTable(f.tables.micro.get(),
                                 imdb::ChunkLayout::ColumnOriented);
    for (const auto mb :
         {MicroBench::RowRead, MicroBench::ColRead,
          MicroBench::RowWrite, MicroBench::ColWrite}) {
        std::vector<cpu::OpStream> streams = streamMicro(db, tid, mb, 4);
        EXPECT_EQ(streams.size(), 4u);
        std::uint64_t memops = 0;
        for (cpu::OpStream &s : streams) {
            for (const auto &op : cpu::drain(std::move(s)))
                memops += op.isMemory() ? 1 : 0;
        }
        // 2048 tuples x 128 B / 64 B = 4096 lines in total.
        EXPECT_EQ(memops, 4096u) << toString(mb);
    }
}

TEST(WorkloadTest, MicroWritesEmitStores)
{
    Fixture f;
    mem::AddressMap map(mem::geometryFor(mem::DeviceKind::Dram));
    imdb::Database db(mem::DeviceKind::Dram, map);
    const auto tid = db.addTable(f.tables.micro.get(),
                                 imdb::ChunkLayout::RowOriented);
    bool any_store = false;
    for (cpu::OpStream &s :
         streamMicro(db, tid, MicroBench::RowWrite, 2)) {
        for (const auto &op : cpu::drain(std::move(s)))
            any_store |= op.kind == cpu::OpKind::Store;
    }
    EXPECT_TRUE(any_store);
}

TEST(WorkloadTest, PartitionsAreBalanced)
{
    Fixture f;
    mem::AddressMap map(mem::geometryFor(mem::DeviceKind::RcNvm));
    const PlacedDatabase pd =
        f.workload.place(mem::DeviceKind::RcNvm, map);
    const auto q = f.workload.compile(QueryId::Q6, pd, 4);
    std::vector<std::uint64_t> per_core;
    for (const auto &plan : q.phases[0])
        per_core.push_back(plan.size());
    const auto [lo, hi] =
        std::minmax_element(per_core.begin(), per_core.end());
    EXPECT_LT(static_cast<double>(*hi - *lo),
              0.6 * static_cast<double>(*hi));
}

} // namespace
} // namespace rcnvm::workload
