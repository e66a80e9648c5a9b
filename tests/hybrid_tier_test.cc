/**
 * @file
 * Tests for the hybrid DRAM + RC-NVM memory tier: remap-table
 * involution and row-id round trip, the shadow-row-buffer locality
 * tracker, migration routing and policies on a directly-driven
 * HybridMemory, and whole-machine determinism of hybrid runs (a
 * hot-row and a victim golden per policy, same seed byte-identical
 * JSON).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "fnv1a.hh"
#include "mem/hybrid_tier.hh"
#include "olxp/generators.hh"
#include "olxp/serve/serve_scheduler.hh"
#include "util/stats_io.hh"
#include "workload/tables.hh"

namespace rcnvm::mem {
namespace {

// --- RemapTable --------------------------------------------------

TEST(RemapTable, StartsFullyUnmapped)
{
    const Geometry far = Geometry::rcNvm();
    RemapTable rt(far, nearTierGeometry(far));
    EXPECT_EQ(rt.mappedRows(), 0u);
    EXPECT_EQ(rt.frames(),
              far.channels * rt.framesPerChannel());
    for (std::uint32_t f = 0; f < rt.frames(); ++f)
        EXPECT_EQ(rt.rowOfFrame(f), -1);
    EXPECT_EQ(rt.frameOf(0), -1);
}

TEST(RemapTable, MapUnmapIsAnInvolution)
{
    const Geometry far = Geometry::rcNvm();
    RemapTable rt(far, nearTierGeometry(far));

    // Any even number of migrations (map/unmap pairs, with the row
    // landing in a different frame each round) must return every row
    // to identity translation.
    const std::uint64_t rows[] = {0, 7, 42,
                                  rt.rows() / far.channels - 1};
    for (unsigned round = 0; round < 4; ++round) {
        unsigned slot = 0;
        for (const std::uint64_t row : rows) {
            // Distinct frame per row and round (all four rows may
            // share a channel, so offsets must not collide).
            const std::uint32_t frame =
                rt.rowChannel(row) * rt.framesPerChannel() +
                round * 4 + slot++;
            rt.map(row, frame);
            EXPECT_EQ(rt.frameOf(row),
                      static_cast<std::int64_t>(frame));
            EXPECT_EQ(rt.rowOfFrame(frame),
                      static_cast<std::int64_t>(row));
        }
        EXPECT_EQ(rt.mappedRows(), 4u);
        for (const std::uint64_t row : rows)
            rt.unmap(row);
        EXPECT_EQ(rt.mappedRows(), 0u);
        for (const std::uint64_t row : rows)
            EXPECT_EQ(rt.frameOf(row), -1);
        for (std::uint32_t f = 0; f < rt.frames(); ++f)
            EXPECT_EQ(rt.rowOfFrame(f), -1);
    }
}

TEST(RemapTable, ToNearCarriesColumnAndChannel)
{
    const Geometry far = Geometry::rcNvm();
    RemapTable rt(far, nearTierGeometry(far));

    DecodedAddr d;
    d.channel = 1;
    d.bank = 3;
    d.row = 9;
    d.col = 48;
    const std::uint64_t row = rt.rowId(d);
    EXPECT_EQ(rt.rowChannel(row), 1u);

    const std::uint32_t frame = 1 * rt.framesPerChannel() + 5;
    rt.map(row, frame);
    const DecodedAddr n = rt.toNear(d);
    EXPECT_EQ(n.channel, 1u); // migrations are channel-local
    EXPECT_EQ(n.col, 48u);    // column offset carries over
    rt.unmap(row);
}

TEST(RemapTable, RowLocationInvertsRowId)
{
    const Geometry far = Geometry::rcNvm();
    RemapTable rt(far, nearTierGeometry(far));

    // Ids at and around each field's carry into the next survive the
    // decode and re-encode.
    const std::uint64_t perChannel = rt.rows() / far.channels;
    const std::uint64_t ids[] = {0,
                                 1,
                                 far.rowsPerSubarray - 1,
                                 far.rowsPerSubarray,
                                 std::uint64_t{far.rowsPerSubarray} *
                                     far.subarraysPerBank,
                                 perChannel / far.ranksPerChannel,
                                 perChannel - 1,
                                 perChannel,
                                 rt.rows() / 2 + 12345,
                                 rt.rows() - 1};
    for (const std::uint64_t id : ids) {
        const DecodedAddr d = rt.rowLocation(id);
        EXPECT_EQ(rt.rowId(d), id);
        EXPECT_EQ(d.channel, rt.rowChannel(id));
        EXPECT_EQ(d.col, 0u);
        EXPECT_EQ(d.offset, 0u);
    }

    // And a decode's row fields come back from its id, at column 0.
    DecodedAddr d;
    d.channel = 1;
    d.rank = 3;
    d.bank = 5;
    d.subarray = far.subarraysPerBank - 1;
    d.row = 77;
    d.col = 48;
    d.offset = 3;
    DecodedAddr want = d;
    want.col = 0;
    want.offset = 0;
    EXPECT_EQ(rt.rowLocation(rt.rowId(d)), want);
}

TEST(RemapTable, FrameLocationRoundRobinsNearBanks)
{
    const Geometry far = Geometry::rcNvm();
    const Geometry near = nearTierGeometry(far);
    RemapTable rt(far, near);
    // Consecutive frames spread across the near banks before any
    // bank reuses its next row.
    std::set<unsigned> banks;
    for (std::uint32_t f = 0; f < near.banksPerRank; ++f) {
        const DecodedAddr d = rt.frameLocation(f);
        banks.insert(d.bank);
        EXPECT_EQ(d.row, 0u);
    }
    EXPECT_EQ(banks.size(), near.banksPerRank);
    EXPECT_EQ(rt.frameLocation(near.banksPerRank).row, 1u);
}

// --- RowLocalityTracker ------------------------------------------

TEST(LocalityTracker, ShadowBufferPredictsHitsAndConflicts)
{
    RowLocalityTracker t(Geometry::rcNvm(), 0.5, Tick{0});
    EXPECT_FALSE(t.recordRow(5, Tick{0}));  // cold bank: miss
    EXPECT_TRUE(t.recordRow(5, Tick{10}));  // same open row: hit
    EXPECT_FALSE(t.recordRow(6, Tick{20})); // same-bank conflict
    EXPECT_FALSE(t.recordRow(5, Tick{30})); // row 6 displaced row 5
}

TEST(LocalityTracker, ColumnAccessFlipsTheShadowBuffer)
{
    RowLocalityTracker t(Geometry::rcNvm(), 0.5, Tick{0});
    EXPECT_FALSE(t.recordRow(5, Tick{0}));
    EXPECT_TRUE(t.recordRow(5, Tick{1}));
    t.recordColumn(5, Tick{2}); // the bank now holds column data
    EXPECT_FALSE(t.recordRow(5, Tick{3}));
    EXPECT_EQ(t.sample(5, Tick{3}).colTouches, 1.0f);
}

TEST(LocalityTracker, EwmaTracksMissRatio)
{
    RowLocalityTracker t(Geometry::rcNvm(), 0.25, Tick{0});
    for (unsigned i = 0; i < 32; ++i)
        t.recordRow(5, Tick{i});
    // One cold miss followed by 31 hits: the EWMA decays toward 0.
    EXPECT_LT(t.sample(5, Tick{32}).ewmaMiss, 0.01f);

    // Ping-pong between two same-bank rows: every access misses.
    for (unsigned i = 0; i < 16; ++i) {
        t.recordRow(8, Tick{100 + 2 * i});
        t.recordRow(9, Tick{101 + 2 * i});
    }
    EXPECT_GT(t.sample(8, Tick{200}).ewmaMiss, 0.9f);
}

TEST(LocalityTracker, TouchCountsHalveOncePerDecayPeriod)
{
    RowLocalityTracker t(Geometry::rcNvm(), 0.25, Tick{1000});
    for (unsigned i = 0; i < 8; ++i)
        t.recordRow(5, Tick{i});
    EXPECT_EQ(t.sample(5, Tick{10}).rowTouches, 8.0f);
    EXPECT_EQ(t.sample(5, Tick{1010}).rowTouches, 4.0f);
    EXPECT_EQ(t.sample(5, Tick{3010}).rowTouches, 1.0f);
    // sample() is non-mutating: asking again at an earlier time
    // still sees the undecayed state.
    EXPECT_EQ(t.sample(5, Tick{10}).rowTouches, 8.0f);
}

// --- HybridMemory, directly driven -------------------------------

struct TierFixture {
    explicit TierFixture(HybridTierConfig config)
        : cfg(finish(config)),
          far(DeviceKind::RcNvm, eq, TimingParams::rcNvm(), false, 32,
              Geometry::rcNvm(), {}),
          near(DeviceKind::Dram, eq, TimingParams::ddr3_1333(), false,
               32, nearTierGeometry(Geometry::rcNvm()), {}),
          tier(far, near, cfg, eq)
    {
        tier.registerStats(registry);
    }

    static HybridTierConfig
    finish(HybridTierConfig c)
    {
        c.enabled = true;
        c.decayPeriod = Tick{0}; // no decay: deterministic counts
        c.migrationLatency = Tick{1000};
        return c;
    }

    /** Issue one row access through the tier. */
    void
    issueRow(unsigned row_id, unsigned col, bool write = false)
    {
        DecodedAddr d;
        d.row = row_id;
        d.col = col;
        MemPacket p;
        p.addr = far.map().encode(d, Orientation::Row);
        p.orient = Orientation::Row;
        p.isWrite = write;
        ASSERT_TRUE(tier.tryIssue(p));
    }

    /** Issue one row access through the tier and drain. */
    void
    row(unsigned row_id, unsigned col, bool write = false)
    {
        issueRow(row_id, col, write);
        eq.run();
    }

    /** Issue one column access (line spanning rows 0-7 at @p col). */
    void
    issueColumn(unsigned col)
    {
        DecodedAddr d;
        d.col = col;
        MemPacket p;
        p.addr = far.map().encode(d, Orientation::Column);
        p.orient = Orientation::Column;
        ASSERT_TRUE(tier.tryIssue(p));
    }

    /** Issue one column access and drain. */
    void
    column(unsigned col)
    {
        issueColumn(col);
        eq.run();
    }

    double stat(const std::string &name)
    {
        return registry.snapshot().get(name);
    }

    sim::EventQueue eq;
    HybridTierConfig cfg;
    MemorySystem far;
    MemorySystem near;
    HybridMemory tier;
    util::StatRegistry registry;
};

HybridTierConfig
policyConfig(MigrationPolicyKind kind, double hot_threshold = 3.0)
{
    HybridTierConfig c;
    c.policy = kind;
    c.hotThreshold = hot_threshold;
    return c;
}

TEST(HybridMemory, HotPagePromotesAfterThresholdTouches)
{
    TierFixture f(policyConfig(MigrationPolicyKind::HotPage));

    f.row(5, 0);
    f.row(5, 8);
    EXPECT_EQ(f.tier.remap().mappedRows(), 0u);
    f.row(5, 16); // third touch reaches the threshold
    EXPECT_EQ(f.tier.remap().mappedRows(), 1u);
    EXPECT_EQ(f.stat("tier.promotions"), 1.0);
    EXPECT_EQ(f.stat("tier.nearHits"), 0.0);

    // The promoted row now routes to the near tier.
    f.row(5, 24);
    EXPECT_EQ(f.stat("tier.nearHits"), 1.0);
    EXPECT_GE(f.stat("tier.near.reads"), 1.0);
    EXPECT_EQ(f.stat("tier.remapOccupancy"), 1.0);
}

TEST(HybridMemory, ColumnOverDirtyMappedRowForcesWriteback)
{
    TierFixture f(policyConfig(MigrationPolicyKind::HotPage));

    f.row(5, 0);
    f.row(5, 8);
    f.row(5, 16);
    ASSERT_EQ(f.tier.remap().mappedRows(), 1u);

    f.row(5, 24, /*write=*/true); // dirty the near copy
    f.column(0); // the column line crosses rows 0-7, row 5 included
    EXPECT_GE(f.stat("tier.colNearOverlaps"), 1.0);
    EXPECT_EQ(f.stat("tier.colDirtyForces"), 1.0);
    // A second column pass sees a clean frame: no second force.
    f.column(8);
    EXPECT_EQ(f.stat("tier.colDirtyForces"), 1.0);
    // HotPage never demotes on column pressure.
    EXPECT_EQ(f.tier.remap().mappedRows(), 1u);
}

TEST(HybridMemory, OrientationPolicyDemotesColumnScannedRows)
{
    TierFixture f(policyConfig(MigrationPolicyKind::Orientation));

    f.row(5, 0);
    f.row(5, 8);
    f.row(5, 16);
    ASSERT_EQ(f.tier.remap().mappedRows(), 1u);

    // Column touches past the veto ratio (colTouches > rowTouches)
    // demote the row back to RC-NVM.
    for (unsigned i = 0; i < 6; ++i)
        f.column(8 * i);
    EXPECT_EQ(f.tier.remap().mappedRows(), 0u);
    EXPECT_EQ(f.stat("tier.demotions"), 1.0);
    // An even number of migrations: the row translates at identity
    // again and far accesses are far once more.
    const double nearBefore = f.stat("tier.nearHits");
    f.row(5, 32);
    EXPECT_EQ(f.stat("tier.nearHits"), nearBefore);
}

TEST(HybridMemory, RowWriteDuringDemotionReachesTheFarDevice)
{
    TierFixture f(policyConfig(MigrationPolicyKind::Orientation));

    f.row(5, 0);
    f.row(5, 8);
    f.row(5, 16);
    ASSERT_EQ(f.tier.remap().mappedRows(), 1u);
    const double nearWrites = f.stat("tier.near.writes"); // the fill

    // Three column touches match the row's three; the fourth passes
    // the veto ratio and starts the demotion.
    for (unsigned i = 0; i < 3; ++i)
        f.column(8 * i);
    ASSERT_EQ(f.tier.migrationsInFlight(), 0u);
    f.issueColumn(24);
    ASSERT_EQ(f.tier.migrationsInFlight(), 1u);

    // The commit releases the frame without copying it home, so a
    // row write issued before it must bypass the frame.
    f.issueRow(5, 32, /*write=*/true);
    f.eq.run();
    EXPECT_EQ(f.tier.remap().mappedRows(), 0u);
    EXPECT_EQ(f.stat("mem.writes"), 1.0);
    EXPECT_EQ(f.stat("tier.near.writes"), nearWrites);
}

// --- Whole-machine determinism -----------------------------------

cpu::MachineConfig
hybridConfig()
{
    cpu::MachineConfig config;
    config.device = DeviceKind::RcNvm;
    Geometry g = geometryFor(DeviceKind::RcNvm);
    g.channels = 4;
    config.geometry = g;
    config.hierarchy.l3 =
        cache::CacheConfig{"L3", 64 * 1024, 64, 8};
    config.seed = 42;
    config.tier.enabled = true;
    config.tier.policy = MigrationPolicyKind::Orientation;
    config.tier.hotThreshold = 2.0;
    config.tier.migrationLatency = Tick{5000};
    return config;
}

/** The far row a core's i-th access touches in every bank. */
using HotRowFn = unsigned (*)(unsigned core, unsigned i);

/** A handful of hot rows: with four channels the row follows the
 *  channel, so each channel has one per bank, 8 against its 128 near
 *  frames. */
unsigned
fewHotRows(unsigned core, unsigned i)
{
    return (core + i) % 4;
}

/** 48 hot rows per bank, 16 accesses at a time: 384 per channel,
 *  three times the near frames, so every channel fills and later
 *  promotions evict ranked victims. */
unsigned
manyHotRows(unsigned core, unsigned i)
{
    return (core * 7 + i / 16) % 48;
}

/** Mixed row/column plans concentrated on hot rows so the tier
 *  promotes (and the orientation policy demotes) mid-run. */
std::vector<cpu::AccessPlan>
hotRowPlans(const cpu::Machine &machine, unsigned ops_per_core,
            HotRowFn row_of = fewHotRows)
{
    const AddressMap &map = machine.map();
    const Geometry &g = map.geometry();
    std::vector<cpu::AccessPlan> plans(4);
    for (unsigned core = 0; core < 4; ++core) {
        for (unsigned i = 0; i < ops_per_core; ++i) {
            DecodedAddr d;
            d.channel = (core + i) % g.channels;
            d.bank = (i / 5) % g.banksPerRank;
            d.row = row_of(core, i);
            d.col = ((i * 13) % (g.colsPerSubarray / 8)) * 8;
            const Addr row_a = map.encode(d, Orientation::Row);
            if (i % 11 == 10) {
                plans[core].push_back(cpu::MemOp::cload(
                    map.encode(d, Orientation::Column)));
            } else if (i % 5 == 0) {
                plans[core].push_back(cpu::MemOp::store(row_a));
            } else {
                plans[core].push_back(cpu::MemOp::load(row_a));
            }
        }
    }
    return plans;
}

/** FNV-1a of a hybrid run's stats JSON. */
std::uint64_t
statsHash(const cpu::RunResult &r)
{
    std::ostringstream os;
    util::writeStatsJson(os, r.stats, "hybrid", r.ticks);
    test::Fnv1a json;
    json.text(os.str());
    return json.hash;
}

class HybridDeterminism
    : public ::testing::TestWithParam<MigrationPolicyKind>
{
};

TEST_P(HybridDeterminism, HotRowRunGolden)
{
    // Four channels behind a 64 KB LLC, hot rows promoted under each
    // policy (and, under the orientation policy, demoted again by
    // column traffic). Pins the finish tick and an FNV-1a hash of the
    // full stats JSON.
    cpu::MachineConfig config = hybridConfig();
    config.tier.policy = GetParam();
    cpu::Machine machine(config);
    const cpu::RunResult r = machine.run(hotRowPlans(machine, 400));
    const std::uint64_t hash = statsHash(r);
    switch (GetParam()) {
      case MigrationPolicyKind::Rbla: // 4 promotions
        EXPECT_EQ(r.ticks, Tick{6960000});
        EXPECT_EQ(hash, 5840050107835215763ull);
        break;
      case MigrationPolicyKind::HotPage: // 32 promotions
        EXPECT_EQ(r.ticks, Tick{4901750});
        EXPECT_EQ(hash, 538904017233551697ull);
        break;
      case MigrationPolicyKind::Orientation: // 132 up, 100 down
        EXPECT_EQ(r.ticks, Tick{5540750});
        EXPECT_EQ(hash, 12347305910772561000ull);
        break;
    }
    // The golden must be exercised by real tier activity.
    EXPECT_GT(r.stats.get("tier.promotions"), 0.0);
}

TEST_P(HybridDeterminism, VictimRunGolden)
{
    // More hot rows than near frames: once a channel's 128 frames
    // hold rows, each promotion evicts the frame victimScore ranks
    // lowest. Pins the finish tick and the stats-JSON FNV-1a.
    cpu::MachineConfig config = hybridConfig();
    config.tier.policy = GetParam();
    cpu::Machine machine(config);
    const cpu::RunResult r =
        machine.run(hotRowPlans(machine, 4000, manyHotRows));
    const std::uint64_t hash = statsHash(r);
    switch (GetParam()) {
      case MigrationPolicyKind::Rbla:
        EXPECT_EQ(r.ticks, Tick{97416000});
        EXPECT_EQ(hash, 4208877366359402347ull);
        break;
      case MigrationPolicyKind::HotPage:
        EXPECT_EQ(r.ticks, Tick{97280750});
        EXPECT_EQ(hash, 13633372380374926712ull);
        break;
      case MigrationPolicyKind::Orientation:
        EXPECT_EQ(r.ticks, Tick{100004250});
        EXPECT_EQ(hash, 779723539764022868ull);
        break;
    }
    EXPECT_GT(r.stats.get("tier.promotions"), 0.0);
    if (GetParam() != MigrationPolicyKind::Orientation) {
        // RBLA and HotPage never demote on column traffic: they fill
        // every frame, and each demotion is an evicted victim.
        EXPECT_EQ(r.stats.get("tier.remapOccupancy"),
                  r.stats.get("tier.remapFrames"));
        EXPECT_GT(r.stats.get("tier.demotions"), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, HybridDeterminism,
    ::testing::Values(MigrationPolicyKind::Rbla,
                      MigrationPolicyKind::HotPage,
                      MigrationPolicyKind::Orientation),
    [](const ::testing::TestParamInfo<MigrationPolicyKind> &info) {
        return std::string(toString(info.param));
    });

TEST(HybridDeterminism, SameSeedHybridServiceRunsAreByteIdentical)
{
    const workload::TableSet tables =
        workload::TableSet::standard(4096, 256, 99);
    const workload::QueryWorkload workload(tables);
    const AddressMap map(geometryFor(DeviceKind::RcNvm));
    const workload::PlacedDatabase pd =
        workload.place(DeviceKind::RcNvm, map);

    const auto runOnce = [&pd] {
        cpu::MachineConfig config;
        config.device = DeviceKind::RcNvm;
        config.seed = 99;
        config.tier.enabled = true;
        config.tier.policy = MigrationPolicyKind::HotPage;
        config.tier.hotThreshold = 2.0;
        cpu::Machine machine(config);

        olxp::serve::ServeConfig cfg;
        cfg.oltpFirst = false;
        cfg.slo = false;
        cfg.optimizer = false;
        cfg.horizon = Tick{2000000};
        cfg.runQueueCapacity = 64;
        olxp::serve::TenantConfig oltp;
        oltp.name = "oltp";
        oltp.cls = olxp::serve::TenantClass::OltpLatency;
        oltp.oltpInterArrival = Tick{20000};
        oltp.oltpHotTupleFraction = 0.125;
        oltp.oltpHotProbability = 0.8;
        olxp::serve::TenantConfig olap;
        olap.name = "olap";
        olap.cls = olxp::serve::TenantClass::OlapThroughput;
        olap.segmentTuples = 256;
        olap.segmentParallelism = 1;
        cfg.tenants = {oltp, olap};
        olxp::serve::ServeScheduler sched(machine, pd, cfg);
        const olxp::serve::ServeResult r = sched.run();
        std::ostringstream os;
        util::writeStatsJson(os, r.run.stats, "svc", r.run.ticks);
        return os.str();
    };
    EXPECT_EQ(runOnce(), runOnce());
}

// --- OLTP hot-set knob -------------------------------------------

TEST(HotSetKnob, SkewShrinksTheTupleFootprint)
{
    const workload::TableSet tables =
        workload::TableSet::standard(4096, 256, 99);
    const workload::QueryWorkload workload(tables);
    const AddressMap map(geometryFor(DeviceKind::RcNvm));
    const workload::PlacedDatabase pd =
        workload.place(DeviceKind::RcNvm, map);

    const auto footprint = [&pd](double hot_frac, double hot_prob) {
        olxp::OltpGenerator gen(pd, Tick{1000}, 0.0, 7, hot_frac,
                                hot_prob);
        std::set<Addr> first;
        for (unsigned i = 0; i < 512; ++i)
            first.insert(cpu::drain(gen.make()).front().addr);
        return first.size();
    };
    const std::size_t uniform = footprint(0.0, 0.0);
    const std::size_t skewed = footprint(1.0 / 64.0, 1.0);
    // P(hot)=1 over a 64-tuple hot set: at most 64 distinct targets
    // versus hundreds under the uniform draw.
    EXPECT_LE(skewed, 64u);
    EXPECT_GT(uniform, 4u * skewed);
}

} // namespace
} // namespace rcnvm::mem
