/**
 * @file
 * Tests for the serving subsystem (DESIGN.md 4i): plan-optimizer
 * correctness — pruned and unpruned plans must produce identical
 * query results on Table-2-shaped and randomized predicates, and the
 * optimizer-off path must be byte-identical to direct
 * ops::scanFieldWord streams (the pre-optimizer golden) — plus
 * tenant admission, shared-scan accounting, the SLO control loop,
 * and end-to-end determinism of a serving run — and FIFO mode
 * (DESIGN.md 4d), whose goldens pin the traffic of the two-class
 * service scheduler it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fnv1a.hh"
#include "imdb/plan_builder.hh"
#include "olxp/serve/serve_scheduler.hh"
#include "util/random.hh"
#include "util/stats_io.hh"
#include "workload/tables.hh"

namespace rcnvm::olxp::serve {
namespace {

constexpr std::uint64_t kTuples = 8192; // 8 summary chunks
constexpr std::uint64_t kServiceTuples = 4096; // FIFO-mode goldens
constexpr std::uint64_t kSeed = 99;

/** Generated tables placed on one device. The placed Database keeps
 *  pointers to the workload and map, so instances live in statics
 *  and never move. */
struct Placement {
    Placement(std::uint64_t tuples, mem::DeviceKind kind)
        : tables(workload::TableSet::standard(tuples, 256, kSeed)),
          workload(tables),
          map(mem::geometryFor(kind)),
          pd(workload.place(kind, map))
    {
    }

    workload::TableSet tables;
    workload::QueryWorkload workload;
    mem::AddressMap map;
    workload::PlacedDatabase pd;
};

/** One placed database shared by every test (placement is pure). */
const workload::PlacedDatabase &
placedDb()
{
    static const Placement p(kTuples, mem::DeviceKind::RcNvm);
    return p.pd;
}

/** The smaller placements the FIFO-mode service runs use. */
const workload::PlacedDatabase &
servicePlacedDb(mem::DeviceKind kind = mem::DeviceKind::RcNvm)
{
    static const Placement rc(kServiceTuples, mem::DeviceKind::RcNvm);
    static const Placement dram(kServiceTuples, mem::DeviceKind::Dram);
    return kind == mem::DeviceKind::Dram ? dram.pd : rc.pd;
}

cpu::MachineConfig
serveMachine(mem::DeviceKind kind = mem::DeviceKind::RcNvm)
{
    cpu::MachineConfig config;
    config.device = kind;
    config.seed = kSeed;
    return config;
}

/** FNV-1a of a run's stats JSON: one number pins every statistic. */
std::uint64_t
jsonHash(const cpu::RunResult &run)
{
    std::ostringstream os;
    util::writeStatsJson(os, run.stats, "serve", run.ticks);
    test::Fnv1a h;
    h.text(os.str());
    return h.hash;
}

/** Byte-level plan equality (MemOp has no operator==). */
bool
samePlan(const cpu::AccessPlan &a, const cpu::AccessPlan &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].kind != b[i].kind || a[i].addr != b[i].addr ||
            a[i].bytes != b[i].bytes ||
            a[i].computeCycles != b[i].computeCycles ||
            a[i].pinOrient != b[i].pinOrient)
            return false;
    }
    return true;
}

/** A threshold hitting roughly @p sel of the uniform value domain
 *  for the given operator. */
std::int64_t
thresholdFor(PredOp op, double sel)
{
    const double range = static_cast<double>(imdb::Table::valueRange);
    return op == PredOp::Greater
               ? static_cast<std::int64_t>(range * (1.0 - sel))
               : static_cast<std::int64_t>(range * sel);
}

/**
 * The Table-2 suite reduced to the serving layer's scan form: one
 * aggregate scan per query at that query's predicate selectivity
 * (QueryWorkload::Params defaults), over the fields the query
 * touches. Joins/updates/group-caching queries contribute their scan
 * phase's shape — the optimizer only ever sees scans.
 */
std::vector<ScanQuery>
tableTwoShapedQueries()
{
    const workload::PlacedDatabase &pd = placedDb();
    const std::uint64_t n = pd.db->table(pd.a).tuples();
    struct Shape {
        unsigned pred, agg;
        PredOp op;
        double sel;
        std::vector<unsigned> touched;
    };
    const std::vector<Shape> shapes = {
        {0, 1, PredOp::Greater, 0.10, {0, 1}},          // Q1
        {10, 1, PredOp::Greater, 0.05, {10, 1}},        // Q2
        {10, 1, PredOp::Greater, 0.90, {10, 1}},        // Q3
        {2, 3, PredOp::Less, 0.50, {2, 3}},             // Q4
        {0, 4, PredOp::Greater, 0.50, {0, 1, 2, 3, 4}}, // Q5
        {1, 5, PredOp::Less, 0.50, {1, 5, 6}},          // Q6
        {3, 7, PredOp::Greater, 0.50, {3, 7}},          // Q7
        {0, 0, PredOp::Greater, 0.50, {0}},             // Q8 (join build)
        {1, 0, PredOp::Less, 0.50, {0, 1}},             // Q9 (join probe)
        {4, 5, PredOp::Greater, 0.30, {4, 5}},          // Q10
        {6, 7, PredOp::Less, 0.30, {6, 7}},             // Q11
        {8, 9, PredOp::Greater, 0.01, {8, 9}},          // Q12
        {9, 8, PredOp::Less, 0.05, {8, 9}},             // Q13
        {0, 2, PredOp::Greater, 0.25, {0, 1, 2, 3}},    // Q14 (ordered)
        {1, 3, PredOp::Less, 0.25, {0, 1, 2, 3}},       // Q15 (ordered)
    };
    std::vector<ScanQuery> out;
    for (const Shape &s : shapes) {
        ScanQuery q;
        q.table = pd.a;
        q.predField = s.pred;
        q.aggField = s.agg;
        q.op = s.op;
        q.threshold = thresholdFor(s.op, s.sel);
        q.t0 = 0;
        q.t1 = n;
        q.touchedFields = s.touched;
        out.push_back(q);
    }
    return out;
}

/** Reference evaluation straight off the table, no optimizer. */
ScanResult
referenceScan(const ScanQuery &q)
{
    const imdb::Table &t = placedDb().db->table(q.table);
    ScanResult r;
    for (std::uint64_t i = q.t0; i < q.t1; ++i) {
        const std::int64_t v = t.value(q.predField, i);
        const bool hit = q.op == PredOp::Greater ? v > q.threshold
                                                 : v < q.threshold;
        if (hit) {
            ++r.matches;
            r.sum += t.value(q.aggField, i);
        }
    }
    return r;
}

TEST(OptimizerTest, TableTwoShapesPrunedEqualsUnpruned)
{
    PlanOptimizer on(placedDb(), true);
    PlanOptimizer off(placedDb(), false);
    for (const ScanQuery &q : tableTwoShapedQueries()) {
        const ScanResult a = on.evaluate(q);
        const ScanResult b = off.evaluate(q);
        EXPECT_EQ(a, b) << "pred f" << q.predField << " thr "
                        << q.threshold;
        EXPECT_EQ(b, referenceScan(q));
        // Compile both ways too: build() drives the pruning
        // counters and must accept every suite shape.
        cpu::drain(on.build(q));
        cpu::drain(off.build(q));
    }
    // Chunk accounting closes: every chunk the on-path skipped was
    // scanned by the off-path, never silently lost.
    EXPECT_EQ(on.chunksScanned().value() + on.chunksPruned().value(),
              off.chunksScanned().value());
}

TEST(OptimizerTest, RandomizedPredicatesPrunedEqualsUnpruned)
{
    PlanOptimizer on(placedDb(), true);
    PlanOptimizer off(placedDb(), false);
    const imdb::Table &t = placedDb().db->table(placedDb().a);
    const unsigned pool = t.schema().tupleWords();
    util::Random rng(kSeed);
    for (unsigned i = 0; i < 256; ++i) {
        ScanQuery q;
        q.table = placedDb().a;
        q.predField = static_cast<unsigned>(rng.nextBounded(pool));
        q.aggField = static_cast<unsigned>(rng.nextBounded(pool));
        q.op = rng.nextBool(0.5) ? PredOp::Greater : PredOp::Less;
        q.threshold = static_cast<std::int64_t>(
            rng.nextBounded(static_cast<std::uint64_t>(
                imdb::Table::valueRange)));
        // Random sub-ranges exercise partially covered edge chunks.
        q.t0 = rng.nextBounded(kTuples - 1);
        q.t1 = q.t0 + 1 + rng.nextBounded(kTuples - q.t0 - 1);
        const ScanResult a = on.evaluate(q);
        EXPECT_EQ(a, off.evaluate(q));
        EXPECT_EQ(a, referenceScan(q));
        cpu::drain(on.build(q));
        cpu::drain(off.build(q));
    }
    // Uniform thresholds rarely prune (a 1024-tuple chunk's min/max
    // spans nearly the whole domain), so add an edge-band batch —
    // the serving mix's selective outlier lookups — to make sure the
    // equality above is exercised on plans that really prune.
    for (unsigned i = 0; i < 64; ++i) {
        ScanQuery q;
        q.table = placedDb().a;
        q.predField = static_cast<unsigned>(rng.nextBounded(pool));
        q.aggField = static_cast<unsigned>(rng.nextBounded(pool));
        const std::int64_t off_edge =
            static_cast<std::int64_t>(rng.nextBounded(64));
        if (rng.nextBool(0.5)) {
            q.op = PredOp::Greater;
            q.threshold = imdb::Table::valueRange - 1 - off_edge;
        } else {
            q.op = PredOp::Less;
            q.threshold = off_edge + 1;
        }
        q.t0 = rng.nextBounded(kTuples - 1);
        q.t1 = q.t0 + 1 + rng.nextBounded(kTuples - q.t0 - 1);
        const ScanResult a = on.evaluate(q);
        EXPECT_EQ(a, off.evaluate(q));
        EXPECT_EQ(a, referenceScan(q));
        cpu::drain(on.build(q));
        cpu::drain(off.build(q));
    }
    EXPECT_EQ(on.chunksScanned().value() + on.chunksPruned().value(),
              off.chunksScanned().value());
    EXPECT_GT(on.chunksPruned().value(), 0u);
}

TEST(OptimizerTest, OffPathIsByteIdenticalToDirectOps)
{
    // The pre-optimizer golden: with the optimizer off, build()
    // must emit exactly the operations of one direct
    // ops::scanFieldWord per touched field over the whole range.
    PlanOptimizer off(placedDb(), false);
    for (const ScanQuery &q : tableTwoShapedQueries()) {
        cpu::AccessPlan direct;
        bool first = true;
        for (const unsigned f : q.touchedFields) {
            const unsigned cost =
                first ? imdb::kCompareCycles : imdb::kAggregateCycles;
            const cpu::AccessPlan scan = cpu::drain(imdb::ops::scanFieldWord(
                *placedDb().db, q.table, f, q.t0, q.t1, cost));
            direct.insert(direct.end(), scan.begin(), scan.end());
            first = false;
        }
        EXPECT_TRUE(samePlan(cpu::drain(off.build(q)), direct));
    }
    EXPECT_EQ(off.chunksPruned().value(), 0u);
    EXPECT_EQ(off.colsPruned().value(), 0u);
}

TEST(OptimizerTest, DeadColumnsArePruned)
{
    PlanOptimizer on(placedDb(), true);
    ScanQuery q;
    q.table = placedDb().a;
    q.predField = 0;
    q.aggField = 1;
    q.op = PredOp::Greater;
    q.threshold = 0; // nothing prunable: isolate column pruning
    q.t0 = 0;
    q.t1 = imdb::Table::chunkTuples;
    q.touchedFields = {0, 1, 2, 3};
    const cpu::AccessPlan pruned = cpu::drain(on.build(q));
    EXPECT_EQ(on.colsPruned().value(), 2u); // f2, f3 dead

    PlanOptimizer off(placedDb(), false);
    const cpu::AccessPlan full = cpu::drain(off.build(q));
    EXPECT_LT(pruned.size(), full.size());
}

// ---------------------------------------------------------------
// Scheduler-level behaviour.
// ---------------------------------------------------------------

TenantConfig
smallOlap(unsigned streams)
{
    TenantConfig tc;
    tc.name = "olap";
    tc.cls = TenantClass::OlapThroughput;
    tc.streams = streams;
    tc.segmentTuples = 512;
    tc.segmentParallelism = 2;
    return tc;
}

ServeConfig
cappedConfig(std::uint64_t segments)
{
    ServeConfig cfg;
    cfg.slo = false;
    cfg.horizon = Tick{1000000000000};
    cfg.maxSegmentsPerGroup = segments;
    cfg.seed = kSeed;
    return cfg;
}

TEST(ServeSchedulerTest, OptimizerOnAndOffRunsAreResultIdentical)
{
    // The bench's identity pair at test scale: a capped cursor
    // executes the same segment sequence whatever the timing, so the
    // optimizer-on and -off runs must agree checksum for checksum
    // while the on-run actually prunes.
    const auto runOnce = [](bool optimizer) {
        cpu::Machine machine(serveMachine());
        ServeConfig cfg = cappedConfig(8);
        cfg.optimizer = optimizer;
        cfg.tenants = {smallOlap(16)};
        ServeScheduler sched(machine, placedDb(), cfg);
        return sched.run();
    };
    const ServeResult on = runOnce(true);
    const ServeResult off = runOnce(false);
    EXPECT_EQ(on.scanChecksum, off.scanChecksum);
    EXPECT_EQ(on.segmentsCompleted, off.segmentsCompleted);
    EXPECT_EQ(on.segmentsCompleted, 8u);
    EXPECT_GT(on.chunksPruned, 0u);
    EXPECT_EQ(off.chunksPruned, 0u);
    // Pruning buys work: the pruned run retires fewer memory ops.
    EXPECT_LT(on.run.ticks, off.run.ticks);
}

TEST(ServeSchedulerTest, SharedCursorCreditsEveryStream)
{
    cpu::Machine machine(serveMachine());
    ServeConfig cfg = cappedConfig(6);
    cfg.tenants = {smallOlap(100)};
    ServeScheduler sched(machine, placedDb(), cfg);
    const ServeResult r = sched.run();
    // 100 streams share one cursor: each completed segment credits
    // all of them, at one scan's worth of actual traffic.
    EXPECT_EQ(r.segmentsCompleted, 6u);
    EXPECT_EQ(r.streamScans, 600u);
}

TEST(ServeSchedulerTest, MeteredBackfillParksButNeverDrops)
{
    cpu::Machine machine(serveMachine());
    ServeConfig cfg = cappedConfig(8);
    TenantConfig maint = smallOlap(4);
    maint.name = "maint";
    maint.cls = TenantClass::Background;
    // A bucket far below the segment rate: admission must deny and
    // park most segments, then retry them deterministically.
    maint.tokensPerMTick = 0.5;
    maint.tokenBurst = 1.0;
    cfg.tenants = {maint};
    ServeScheduler sched(machine, placedDb(), cfg);
    const ServeResult r = sched.run();
    EXPECT_GT(r.backfillDenied, 0u);
    EXPECT_EQ(r.segmentsCompleted, 8u); // deferred, never dropped
    EXPECT_EQ(sched.parkedCount(), 0u);
}

TEST(ServeSchedulerTest, SloLoopShedsBackfillUnderBreach)
{
    cpu::Machine machine(serveMachine());
    ServeConfig cfg;
    cfg.seed = kSeed;
    cfg.horizon = Tick{4000000};
    cfg.slo = true;
    cfg.sloTarget = Tick{1}; // unmeetable: every window breaches
    cfg.sloPeriod = Tick{100000};
    TenantConfig oltp;
    oltp.name = "oltp";
    oltp.cls = TenantClass::OltpLatency;
    oltp.oltpInterArrival = Tick{20000};
    cfg.tenants = {oltp, smallOlap(8)};
    ServeScheduler sched(machine, placedDb(), cfg);
    const ServeResult r = sched.run();
    EXPECT_GT(r.sloBreaches, 0u);
    // The loop shed backfill down to the floor and, with every
    // window breaching, never grew it back.
    EXPECT_EQ(sched.backfillSlots(), ServeScheduler::backfillFloor);
    // SLO-on golden.
    EXPECT_EQ(r.run.ticks, Tick{11400000});
    EXPECT_EQ(jsonHash(r.run), 12511730066676549493ull);
}

TEST(ServeSchedulerTest, SloOffLetsBackfillKeepItsSlots)
{
    cpu::Machine machine(serveMachine());
    ServeConfig cfg;
    cfg.seed = kSeed;
    cfg.horizon = Tick{4000000};
    cfg.slo = false;
    TenantConfig oltp;
    oltp.name = "oltp";
    oltp.cls = TenantClass::OltpLatency;
    oltp.oltpInterArrival = Tick{20000};
    cfg.tenants = {oltp, smallOlap(8)};
    ServeScheduler sched(machine, placedDb(), cfg);
    const ServeResult r = sched.run();
    EXPECT_EQ(r.sloBreaches, 0u);
    // Unprotected: backfill may fill every core.
    EXPECT_EQ(sched.backfillSlots(), machine.coreCount());
}

TEST(ServeSchedulerTest, ServeStatsLandInTheMachineSnapshot)
{
    cpu::Machine machine(serveMachine());
    ServeConfig cfg = cappedConfig(4);
    cfg.tenants = {smallOlap(10)};
    ServeScheduler sched(machine, placedDb(), cfg);
    const ServeResult r = sched.run();
    const util::StatsMap &s = r.run.stats;
    EXPECT_EQ(s.get("serve.segmentsCompleted"),
              static_cast<double>(r.segmentsCompleted));
    EXPECT_EQ(s.get("serve.streamScans"),
              static_cast<double>(r.streamScans));
    EXPECT_EQ(s.get("serve.chunksPruned"),
              static_cast<double>(r.chunksPruned));
    EXPECT_EQ(s.get("serve.scanMatches"),
              static_cast<double>(r.scanChecksum.matches));
    // Per-tenant counters are registered under dynamic names built
    // from the tenant's configured name; assemble it the same way.
    const std::string tenantCompleted =
        "serve." + cfg.tenants[0].name + ".completed";
    EXPECT_EQ(s.get(tenantCompleted),
              static_cast<double>(r.segmentsCompleted));
}

/**
 * The DESIGN.md 4d service as a FIFO-mode config: one OLTP tenant
 * and one unoptimized single-field scan tenant whose
 * @p olap_streams closed-loop streams share one cursor.
 */
ServeConfig
fifoService(unsigned olap_streams = 1)
{
    ServeConfig cfg;
    cfg.oltpFirst = false;
    cfg.slo = false;
    cfg.optimizer = false;
    cfg.scanFields = 1;
    cfg.horizon = Tick{2000000};
    cfg.runQueueCapacity = 16;
    // The FIFO goldens below were recorded on the two-class service
    // scheduler this mode replaced, which seeded its OLTP stream with
    // seed + 0x01. Tenant i draws from seed + 0x100 + i, so this
    // offset gives tenant 0 that stream at the machine seed.
    cfg.seed = kSeed + 0x01 - 0x100;

    TenantConfig oltp;
    oltp.name = "oltp";
    oltp.cls = TenantClass::OltpLatency;
    oltp.oltpInterArrival = Tick{20000};
    oltp.oltpUpdateFraction = 0.25;
    TenantConfig olap = smallOlap(1);
    olap.segmentTuples = 256;
    olap.segmentParallelism = olap_streams;
    cfg.tenants = {oltp, olap};
    return cfg;
}

ServeResult
runFifo(const cpu::MachineConfig &machine_cfg, const ServeConfig &cfg,
        mem::DeviceKind placement = mem::DeviceKind::RcNvm)
{
    cpu::Machine machine(machine_cfg);
    ServeScheduler sched(machine, servicePlacedDb(placement), cfg);
    return sched.run();
}

/** The OLTP-first, SLO-off mix the determinism goldens run. */
ServeConfig
oltpFirstMix()
{
    ServeConfig mix = cappedConfig(0);
    mix.horizon = Tick{2000000};
    TenantConfig oltp;
    oltp.name = "oltp";
    oltp.cls = TenantClass::OltpLatency;
    oltp.oltpInterArrival = Tick{50000};
    mix.tenants = {smallOlap(32), oltp};
    return mix;
}

/** One oltpFirstMix() run on serveMachine() under @p sched. */
cpu::RunResult
runMix(mem::SchedPolicyKind sched = mem::SchedPolicyKind::FrFcfs)
{
    cpu::MachineConfig config = serveMachine();
    config.schedPolicy = sched;
    cpu::Machine machine(config);
    ServeScheduler scheduler(machine, placedDb(), oltpFirstMix());
    return scheduler.run().run;
}

TEST(ServeSchedulerTest, SameSeedServeRunsAreByteIdentical)
{
    const cpu::RunResult a = runMix();
    EXPECT_EQ(jsonHash(a), jsonHash(runMix()));
    // OLTP-first, SLO-off golden.
    EXPECT_EQ(a.ticks, Tick{4279291});
    EXPECT_EQ(jsonHash(a), 8811526091133822011ull);
}

TEST(ServeSchedulerTest, ReadPriorityMixGolden)
{
    // The same mix on a read-priority controller, where OLTP reads
    // form the upper selection tier: the run must leave the FR-FCFS
    // golden above, so the upper tier is really exercised.
    const cpu::RunResult r = runMix(mem::SchedPolicyKind::ReadPriority);
    EXPECT_EQ(r.ticks, Tick{3607500});
    EXPECT_EQ(jsonHash(r), 6458899143904489731ull);
    EXPECT_NE(jsonHash(r), jsonHash(runMix()));
}

TEST(ServeSchedulerTest, MeasureFromKeepsWarmUpOutOfTheLatencyHistogram)
{
    // A light OLTP-only load rejects nothing, so every arrival
    // completes, and a run cut at the measurement start replays
    // exactly the warm-up arrivals of the full run.
    const auto runOltp = [](Tick horizon, Tick measure_from) {
        ServeConfig cfg;
        cfg.seed = kSeed;
        cfg.slo = false;
        cfg.horizon = horizon;
        cfg.measureFrom = measure_from;
        TenantConfig oltp;
        oltp.name = "oltp";
        oltp.cls = TenantClass::OltpLatency;
        oltp.oltpInterArrival = Tick{20000};
        cfg.tenants = {oltp};
        cpu::Machine machine(serveMachine());
        ServeScheduler sched(machine, placedDb(), cfg);
        return sched.run();
    };
    const Tick half{1000000};
    const ServeResult full = runOltp(Tick{2000000}, half);
    const ServeResult warmUp = runOltp(half, Tick{0});
    ASSERT_EQ(full.oltpRejected, 0u);
    ASSERT_EQ(warmUp.oltpRejected, 0u);
    ASSERT_GT(warmUp.oltpCompleted, 0u);
    const double measured = full.run.stats.get("serve.oltpLatency.samples");
    EXPECT_EQ(measured, static_cast<double>(full.oltpCompleted -
                                            warmUp.oltpCompleted));
    EXPECT_GT(measured, 0.0);
    EXPECT_EQ(full.run.stats.get("serve.oltpLatencyP99"), full.oltpP99);
}

TEST(ServeSchedulerTest, OlapScansWalkTheTableRoundRobin)
{
    // 4096 tuples / 256 per segment = 16 segments per pass; the 17th
    // wraps the cursor to the start and must still scan a chunk.
    ServeConfig cfg = fifoService();
    const TenantConfig olap = cfg.tenants[1];
    cfg.tenants = {olap};
    cfg.horizon = Tick{1000000000000};
    cfg.maxSegmentsPerGroup = 17;
    const ServeResult r = runFifo(serveMachine(), cfg);
    EXPECT_EQ(r.segmentsCompleted, 17u);
    EXPECT_EQ(r.chunksScanned, 17u); // a segment sits in one chunk
}

TEST(ServeSchedulerDeathTest, SloNeedsOltpFirstDispatch)
{
    cpu::Machine machine(serveMachine());
    ServeConfig cfg = fifoService();
    cfg.slo = true;
    EXPECT_EXIT(ServeScheduler(machine, servicePlacedDb(), cfg).run(),
                ::testing::ExitedWithCode(1), "oltpFirst");
}

// ---------------------------------------------------------------
// FIFO mode: the DESIGN.md 4d service.
// ---------------------------------------------------------------

/** A FIFO-mode run's pinned outcome. */
struct FifoGolden {
    Tick ticks;
    std::uint64_t oltpGenerated, oltpCompleted, oltpRejected;
    std::uint64_t segmentsCompleted, backfillDenied;
    /** FNV-1a over the name and value bits of every statistic
     *  outside the scheduler's own serve.* namespace. */
    std::uint64_t machineStats;
};

void
expectGolden(const ServeResult &r, const FifoGolden &g)
{
    EXPECT_EQ(r.run.ticks, g.ticks);
    EXPECT_EQ(r.oltpGenerated, g.oltpGenerated);
    EXPECT_EQ(r.oltpCompleted, g.oltpCompleted);
    EXPECT_EQ(r.oltpRejected, g.oltpRejected);
    EXPECT_EQ(r.segmentsCompleted, g.segmentsCompleted);
    EXPECT_EQ(r.backfillDenied, g.backfillDenied);
    test::Fnv1a h;
    for (const auto &[name, entry] : r.run.stats.entries()) {
        if (name.starts_with("serve."))
            continue;
        h.text(name);
        h.word(std::bit_cast<std::uint64_t>(entry.value));
    }
    EXPECT_EQ(h.hash, g.machineStats);
}

TEST(FifoModeGolden, RcNvm)
{
    expectGolden(runFifo(serveMachine(), fifoService()),
                 {Tick{2692500}, 100, 68, 32, 3, 1, 346620836748309902ull});
}

TEST(FifoModeGolden, Dram)
{
    expectGolden(runFifo(serveMachine(mem::DeviceKind::Dram),
                         fifoService(), mem::DeviceKind::Dram),
                 {Tick{2316244}, 100, 98, 2, 1, 0, 520261683435385751ull});
}

TEST(FifoModeGolden, OverloadParksScans)
{
    // ~100x over capacity on a 4-entry queue with three scan
    // streams: segments find the queue full and park.
    ServeConfig cfg = fifoService(3);
    cfg.tenants[0].oltpInterArrival = Tick{200};
    cfg.runQueueCapacity = 4;
    expectGolden(runFifo(serveMachine(), cfg),
                 {Tick{2882000}, 10057, 44, 10013, 6, 3,
                  1067858186988522085ull});
}

TEST(FifoModeGolden, HybridHotSet)
{
    cpu::MachineConfig machine = serveMachine();
    machine.tier.enabled = true;
    machine.tier.policy = mem::MigrationPolicyKind::HotPage;
    machine.tier.hotThreshold = 2.0;
    ServeConfig cfg = fifoService();
    cfg.runQueueCapacity = 64;
    cfg.tenants[0].oltpUpdateFraction = 0.2;
    cfg.tenants[0].oltpHotProbability = 0.8;
    expectGolden(runFifo(machine, cfg),
                 {Tick{4544500}, 110, 99, 11, 3, 1,
                  13071255353937706169ull});
}

TEST(SchedulerTest, LatencyHistogramCountsMatchCompletions)
{
    const ServeResult r = runFifo(serveMachine(), fifoService());
    EXPECT_GT(r.oltpCompleted, 0u);
    EXPECT_GT(r.segmentsCompleted, 0u);
    EXPECT_EQ(r.run.stats.get("serve.oltpLatency.samples"),
              static_cast<double>(r.oltpCompleted));
    // Every generated request either completed or was rejected.
    EXPECT_EQ(r.oltpGenerated, r.oltpCompleted + r.oltpRejected);
    // Percentiles are monotone and non-zero once samples exist.
    EXPECT_GT(r.oltpP50, 0.0);
    EXPECT_LE(r.oltpP50, r.oltpP95);
    EXPECT_LE(r.oltpP95, r.oltpP99);
}

TEST(SchedulerTest, ServiceStatsLandInTheMachineSnapshot)
{
    const ServeResult r = runFifo(serveMachine(), fifoService());
    const util::StatsMap &s = r.run.stats;
    EXPECT_EQ(s.get("serve.oltpCompleted"),
              static_cast<double>(r.oltpCompleted));
    EXPECT_EQ(s.get("serve.oltpRejected"),
              static_cast<double>(r.oltpRejected));
    EXPECT_EQ(s.get("serve.segmentsCompleted"),
              static_cast<double>(r.segmentsCompleted));
    EXPECT_EQ(s.get("serve.backfillDenied"),
              static_cast<double>(r.backfillDenied));
    // The registry formulas and ServeResult read one histogram.
    EXPECT_GT(r.oltpP99, 0.0);
    EXPECT_EQ(s.get("serve.oltpLatencyP50"), r.oltpP50);
    EXPECT_EQ(s.get("serve.oltpLatencyP95"), r.oltpP95);
    EXPECT_EQ(s.get("serve.oltpLatencyP99"), r.oltpP99);
}

TEST(SchedulerTest, OverloadRejectsButNeverDropsOlap)
{
    cpu::MachineConfig machine_cfg = serveMachine();
    machine_cfg.epochTicks = Tick{10000};
    cpu::Machine machine(machine_cfg);
    ServeConfig cfg = fifoService();
    cfg.tenants[0].oltpInterArrival = Tick{200}; // ~100x capacity
    cfg.runQueueCapacity = 4;
    ServeScheduler sched(machine, servicePlacedDb(), cfg);
    const ServeResult r = sched.run();

    EXPECT_GT(r.oltpRejected, 0u);
    // Under this overload the bound bit: segments were denied
    // admission and parked, and none was left behind.
    EXPECT_GT(r.backfillDenied, 0u);
    EXPECT_EQ(sched.parkedCount(), 0u);
    // The run-queue bound held in every epoch sample: parked
    // segments wait outside the queue instead of overflowing it.
    const sim::EpochSeries &series = r.run.series;
    const auto col = std::find(series.names.begin(),
                               series.names.end(), "serve.queueDepth");
    ASSERT_NE(col, series.names.end());
    const std::size_t c =
        static_cast<std::size_t>(col - series.names.begin());
    double peak = 0;
    for (const std::vector<double> &row : series.rows)
        peak = std::max(peak, row[c]);
    EXPECT_GT(peak, 0.0);
    EXPECT_LE(peak, static_cast<double>(cfg.runQueueCapacity));
}

TEST(SchedulerTest, HorizonStopsTheOpenLoop)
{
    const ServeConfig cfg = fifoService();
    const ServeResult r = runFifo(serveMachine(), cfg);
    // The offered load stops at the horizon, so the generated count
    // stays near horizon / interArrival (Poisson, not unbounded).
    const double expected =
        static_cast<double>(cfg.horizon.value()) /
        static_cast<double>(cfg.tenants[0].oltpInterArrival.value());
    EXPECT_GT(static_cast<double>(r.oltpGenerated), expected * 0.5);
    EXPECT_LT(static_cast<double>(r.oltpGenerated), expected * 1.5);
    // The closed loop runs until a segment completes at or past the
    // horizon, then the machine drains.
    EXPECT_GE(r.run.ticks, cfg.horizon);
}

TEST(SchedulerTest, SameSeedServiceRunsAreByteIdentical)
{
    const auto runOnce = [] {
        return jsonHash(runFifo(serveMachine(), fifoService()).run);
    };
    EXPECT_EQ(runOnce(), runOnce());
}

TEST(SchedulerTest, DifferentSeedsProduceDifferentTraffic)
{
    const auto runWithSeed = [](std::uint64_t seed) {
        ServeConfig cfg = fifoService();
        cfg.seed = seed;
        return runFifo(serveMachine(), cfg);
    };
    // Arrival processes differ, so the run lengths practically
    // cannot coincide tick for tick.
    EXPECT_NE(runWithSeed(1).run.ticks, runWithSeed(2).run.ticks);
}

TEST(SchedulerTest, DevicesShareTheTrafficShape)
{
    // The same service runs on a row-only device: OLTP plans are
    // row-oriented everywhere, and scan plans compile to the
    // device's supported orientation.
    const ServeResult r =
        runFifo(serveMachine(mem::DeviceKind::Dram), fifoService(),
                mem::DeviceKind::Dram);
    EXPECT_GT(r.oltpCompleted, 0u);
    EXPECT_GT(r.segmentsCompleted, 0u);
}

} // namespace
} // namespace rcnvm::olxp::serve
