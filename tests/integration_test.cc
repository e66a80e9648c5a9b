/**
 * @file
 * End-to-end integration tests: whole queries on whole machines,
 * checking the paper's qualitative results at a reduced scale plus
 * cross-cutting invariants (determinism, stat consistency).
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "core/system.hh"
#include "util/logging.hh"

namespace rcnvm::core {
namespace {

using workload::MicroBench;
using workload::QueryId;

class Quiet : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        util::setLogLevel(util::LogLevel::Quiet);
    }
};

class IntegrationTest : public Quiet
{
  protected:
    workload::TableSet tables_ =
        workload::TableSet::standard(8192, 4096, 11);
    workload::QueryWorkload workload_{tables_};
};

TEST_F(IntegrationTest, ColumnScanQueryFasterOnRcNvm)
{
    const auto rc =
        runQuery(mem::DeviceKind::RcNvm, workload_, QueryId::Q6);
    const auto rram =
        runQuery(mem::DeviceKind::Rram, workload_, QueryId::Q6);
    const auto dram =
        runQuery(mem::DeviceKind::Dram, workload_, QueryId::Q6);
    EXPECT_LT(rc.ticks, rram.ticks);
    EXPECT_LT(rc.ticks, dram.ticks);
    // The paper reports a large factor on Q6; at this reduced scale
    // we still expect at least 2x against both baselines.
    EXPECT_GT(static_cast<double>(rram.ticks.value()) /
                  static_cast<double>(rc.ticks.value()),
              2.0);
}

TEST_F(IntegrationTest, LlcMissesDropOnRcNvm)
{
    const auto rc =
        runQuery(mem::DeviceKind::RcNvm, workload_, QueryId::Q6);
    const auto dram =
        runQuery(mem::DeviceKind::Dram, workload_, QueryId::Q6);
    // Figure 19: RC-NVM needs far fewer memory accesses.
    EXPECT_LT(rc.llcMisses() * 2.0, dram.llcMisses());
}

TEST_F(IntegrationTest, SequentialScanQueryFavoursDram)
{
    // Q3 translates into sequential row scans: the paper's one
    // exception where DRAM wins.
    const auto rc =
        runQuery(mem::DeviceKind::RcNvm, workload_, QueryId::Q3);
    const auto dram =
        runQuery(mem::DeviceKind::Dram, workload_, QueryId::Q3);
    EXPECT_LT(dram.ticks, rc.ticks);
    // ... but RC-NVM stays within ~2.5x of DRAM (at full scale the
    // gap narrows to the bus-frequency ratio; see EXPERIMENTS.md).
    EXPECT_LT(static_cast<double>(rc.ticks.value()),
              2.5 * static_cast<double>(dram.ticks.value()));
}

TEST_F(IntegrationTest, GsDramHelpsOnlyGatherableQueries)
{
    // Q6 (table-a, power-of-two stride) benefits from GS-DRAM;
    // Q5 (table-b) cannot gather and matches plain DRAM.
    const auto gs6 =
        runQuery(mem::DeviceKind::GsDram, workload_, QueryId::Q6);
    const auto dram6 =
        runQuery(mem::DeviceKind::Dram, workload_, QueryId::Q6);
    EXPECT_LT(gs6.ticks, dram6.ticks);

    const auto gs5 =
        runQuery(mem::DeviceKind::GsDram, workload_, QueryId::Q5);
    const auto dram5 =
        runQuery(mem::DeviceKind::Dram, workload_, QueryId::Q5);
    EXPECT_EQ(gs5.ticks, dram5.ticks);
}

TEST_F(IntegrationTest, CoherenceOverheadWithinPaperRange)
{
    // Figure 21: 0.2% - 3.4% across the query set. Allow headroom.
    for (const QueryId id :
         {QueryId::Q1, QueryId::Q8, QueryId::Q12}) {
        const auto r =
            runQuery(mem::DeviceKind::RcNvm, workload_, id);
        EXPECT_GE(r.coherenceOverheadRatio(), 0.0);
        EXPECT_LE(r.coherenceOverheadRatio(), 0.05)
            << workload::querySpec(id).name;
    }
}

TEST_F(IntegrationTest, UpdatesRunOnAllDevices)
{
    for (const auto kind :
         {mem::DeviceKind::RcNvm, mem::DeviceKind::Rram,
          mem::DeviceKind::Dram}) {
        const auto r = runQuery(kind, workload_, QueryId::Q12);
        EXPECT_GT(r.ticks, Tick{0});
        EXPECT_GT(r.stats.get("cpu.memOps"), 0.0);
    }
}

TEST_F(IntegrationTest, JoinsCompleteAndTouchHashRegion)
{
    const auto r =
        runQuery(mem::DeviceKind::RcNvm, workload_, QueryId::Q9);
    EXPECT_GT(r.ticks, Tick{0});
    // The hash region is touched by build stores and probe loads
    // (write-backs only reach memory once dirty lines spill, which
    // needs a larger-than-LLC footprint).
    EXPECT_GT(r.stats.get("cache.accesses"),
              2.0 * static_cast<double>(
                        tables_.a->tuples() / 8)); // both scans
}

TEST_F(IntegrationTest, GroupCachingImprovesOrderedScans)
{
    // Figure 23: group caching helps once the workload exerts real
    // column-buffer pressure, so this test runs at a larger scale
    // than the rest of the fixture.
    const workload::TableSet big =
        workload::TableSet::standard(65536, 4096, 11);
    const workload::QueryWorkload wl(big);
    const auto g0 =
        runQuery(mem::DeviceKind::RcNvm, wl, QueryId::Q14, 0);
    const auto g32 =
        runQuery(mem::DeviceKind::RcNvm, wl, QueryId::Q14, 32);
    const auto g128 =
        runQuery(mem::DeviceKind::RcNvm, wl, QueryId::Q14, 128);
    EXPECT_LT(g32.ticks, g0.ticks);
    // Larger groups also beat the no-prefetch baseline; past the
    // saturation point the exact ordering between sizes depends on
    // cache capacity (as Sec. 5 notes), so only the headline claim
    // is asserted.
    EXPECT_LT(g128.ticks, g0.ticks);
    EXPECT_EQ(g0.stats.get("cache.pinnedEvictions"), 0.0);
}

TEST_F(IntegrationTest, GroupCachingCutsBufferConflicts)
{
    const auto g0 = runQuery(mem::DeviceKind::RcNvm, workload_,
                             QueryId::Q15, 0);
    const auto g64 = runQuery(mem::DeviceKind::RcNvm, workload_,
                              QueryId::Q15, 64);
    EXPECT_LT(g64.stats.get("mem.bufferConflicts") * 4.0,
              g0.stats.get("mem.bufferConflicts"));
}

TEST_F(IntegrationTest, DeterministicAcrossRuns)
{
    const auto a =
        runQuery(mem::DeviceKind::RcNvm, workload_, QueryId::Q4);
    const auto b =
        runQuery(mem::DeviceKind::RcNvm, workload_, QueryId::Q4);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.llcMisses(), b.llcMisses());
}

TEST_F(IntegrationTest, StatsAreInternallyConsistent)
{
    const auto r =
        runQuery(mem::DeviceKind::RcNvm, workload_, QueryId::Q1);
    EXPECT_LE(r.stats.get("cache.llcMisses"),
              r.stats.get("cache.accesses"));
    // Every demand miss reaches memory unless it coalesced into an
    // in-flight MSHR or was served out of the write-back buffer.
    EXPECT_GE(r.stats.get("mem.requests"),
              r.stats.get("cache.llcMisses") -
                  r.stats.get("cache.mshrCoalesced") -
                  r.stats.get("cache.wbForwards"));
    EXPECT_LE(r.bufferMissRate(), 1.0);
    EXPECT_GE(r.bufferMissRate(), 0.0);
}

TEST_F(IntegrationTest, MicroColumnScansFavourRcNvm)
{
    const auto rc = runMicro(mem::DeviceKind::RcNvm, tables_,
                             MicroBench::ColRead,
                             imdb::ChunkLayout::ColumnOriented);
    const auto dram = runMicro(mem::DeviceKind::Dram, tables_,
                               MicroBench::ColRead,
                               imdb::ChunkLayout::ColumnOriented);
    // Figure 17 reports ~76% execution-time reduction on column
    // scans. At this scale the gap is smaller since MSHR coalescing
    // was introduced: the four cores race on the same lines, and
    // DRAM no longer pays for the duplicate in-flight fetches that
    // the pre-MSHR model issued (one per racing core).
    EXPECT_LT(static_cast<double>(rc.ticks.value()),
              0.65 * static_cast<double>(dram.ticks.value()));
    EXPECT_GT(rc.mshrCoalesced() + dram.mshrCoalesced(), 0.0);
}

TEST_F(IntegrationTest, MicroRowScansComparableAcrossDevices)
{
    const auto rc = runMicro(mem::DeviceKind::RcNvm, tables_,
                             MicroBench::RowRead,
                             imdb::ChunkLayout::RowOriented);
    const auto rram = runMicro(mem::DeviceKind::Rram, tables_,
                               MicroBench::RowRead,
                               imdb::ChunkLayout::RowOriented);
    // RC-NVM pays only a small penalty over RRAM on row scans
    // (paper: ~4%); allow up to 25% at this scale.
    EXPECT_LT(static_cast<double>(rc.ticks.value()),
              1.25 * static_cast<double>(rram.ticks.value()));
}

TEST_F(IntegrationTest, SensitivitySlowerCellsSlowRcNvm)
{
    // Figure 22: scaling the cell read/write latency scales
    // execution time monotonically.
    mem::AddressMap map(mem::geometryFor(mem::DeviceKind::RcNvm));
    const auto pd = workload_.place(mem::DeviceKind::RcNvm, map);
    Tick prev{0};
    for (const double read_ns : {12.5, 25.0, 50.0, 100.0, 200.0}) {
        const auto cfg = table1MachineWithCell(
            mem::DeviceKind::RcNvm, read_ns, read_ns * 0.4);
        const auto r =
            runStreamed(cfg, workload_.stream(QueryId::Q4, pd, 4));
        EXPECT_GT(r.ticks, prev);
        prev = r.ticks;
    }
}

TEST_F(IntegrationTest, RcNvmSystemFacadeWorks)
{
    RcNvmSystem::Options opt;
    opt.tuples = 4096;
    opt.microTuples = 2048;
    RcNvmSystem sys(opt);
    EXPECT_GT(sys.binsUsed(), 0u);
    EXPECT_GT(sys.packingUtilization(), 0.0);
    const auto r = sys.runQuery(QueryId::Q1);
    EXPECT_GT(r.ticks, Tick{0});
    const auto m = sys.runMicro(MicroBench::RowRead);
    EXPECT_GT(m.ticks, Tick{0});
}

TEST_F(IntegrationTest, Table1PresetMatchesPaper)
{
    const auto cfg = table1Machine(mem::DeviceKind::RcNvm);
    EXPECT_EQ(cfg.hierarchy.cores, 4u);
    EXPECT_EQ(cfg.hierarchy.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.hierarchy.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(cfg.hierarchy.l3.sizeBytes, 8u * 1024 * 1024);
    EXPECT_EQ(cfg.hierarchy.l1.ways, 8u);
    EXPECT_EQ(cfg.hierarchy.l1.lineBytes, 64u);
}

} // namespace
} // namespace rcnvm::core
