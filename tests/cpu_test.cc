/**
 * @file
 * Tests for the trace-replay core and the machine assembly:
 * issue/window semantics, compute timing, fences, pin ops, and
 * multi-core runs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "cpu/machine.hh"
#include "fnv1a.hh"
#include "util/random.hh"
#include "util/stats_io.hh"

namespace rcnvm::cpu {
namespace {

MachineConfig
smallMachine(mem::DeviceKind kind = mem::DeviceKind::RcNvm,
             unsigned window = 8)
{
    MachineConfig config;
    config.device = kind;
    config.window = window;
    return config;
}

TEST(MemOpTest, OrientationAndKindHelpers)
{
    EXPECT_EQ(MemOp::load(0).orientation(), Orientation::Row);
    EXPECT_EQ(MemOp::cload(0).orientation(), Orientation::Column);
    EXPECT_EQ(MemOp::cstore(0).orientation(), Orientation::Column);
    EXPECT_TRUE(MemOp::store(0).isWrite());
    EXPECT_TRUE(MemOp::cstore(0).isWrite());
    EXPECT_FALSE(MemOp::cload(0).isWrite());
    EXPECT_TRUE(MemOp::gload(0).isMemory());
    EXPECT_FALSE(MemOp::compute(5).isMemory());
    EXPECT_FALSE(MemOp::fence().isMemory());
    EXPECT_EQ(MemOp::pin(0, 64, Orientation::Row).orientation(),
              Orientation::Row);
}

TEST(MachineTest, EmptyPlanFinishesInstantly)
{
    Machine machine(smallMachine());
    const RunResult r = machine.run(AccessPlan{});
    EXPECT_EQ(r.ticks, Tick{0});
}

TEST(MachineTest, ComputeOnlyPlanTakesExactCycles)
{
    Machine machine(smallMachine());
    AccessPlan plan;
    plan.push_back(MemOp::compute(100));
    plan.push_back(MemOp::compute(23));
    const RunResult r = machine.run(plan);
    EXPECT_EQ(r.ticks, Tick{123u * 500u});
}

TEST(MachineTest, SingleLoadCompletes)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::load(0x1000)};
    const RunResult r = machine.run(plan);
    EXPECT_GT(r.ticks, Tick{0});
    EXPECT_DOUBLE_EQ(r.stats.get("cpu.memOps"), 1.0);
    EXPECT_DOUBLE_EQ(r.stats.get("cache.llcMisses"), 1.0);
    EXPECT_DOUBLE_EQ(r.stats.get("mem.reads"), 1.0);
}

TEST(MachineTest, CacheHitsAreFastOnRerun)
{
    Machine machine(smallMachine());
    AccessPlan plan;
    for (unsigned i = 0; i < 16; ++i)
        plan.push_back(MemOp::load(Addr{i} * 64));
    const RunResult cold = machine.run(plan);
    const RunResult warm = machine.run(plan);
    EXPECT_LT(warm.ticks, cold.ticks);
}

TEST(MachineTest, WindowLimitsOverlap)
{
    // With window 1 the loads serialise; with window 8 they overlap
    // across independent banks.
    AccessPlan plan;
    for (unsigned i = 0; i < 32; ++i)
        plan.push_back(MemOp::load(Addr{i} << 26)); // distinct banks
    Machine serial(smallMachine(mem::DeviceKind::RcNvm, 1));
    Machine overlapped(smallMachine(mem::DeviceKind::RcNvm, 8));
    const Tick t_serial = serial.run(plan).ticks;
    const Tick t_overlap = overlapped.run(plan).ticks;
    EXPECT_LT(t_overlap, t_serial);
    EXPECT_LT(t_overlap * 2, t_serial); // substantial overlap
}

TEST(MachineTest, FenceDrainsBeforeCompute)
{
    // load(miss) ; fence ; compute -- total must exceed the miss
    // latency plus the compute, not overlap them.
    Machine no_fence(smallMachine());
    Machine with_fence(smallMachine());
    AccessPlan a{MemOp::load(0x4000), MemOp::compute(400)};
    AccessPlan b{MemOp::load(0x4000), MemOp::fence(),
                 MemOp::compute(400)};
    const Tick ta = no_fence.run(a).ticks;
    const Tick tb = with_fence.run(b).ticks;
    EXPECT_GT(tb, ta); // fence forbids overlapping the compute
    EXPECT_GE(tb, Tick{400u * 500u});
}

TEST(MachineTest, StoresAreCountedAsWritesOnWriteback)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::store(0x100, 8)};
    const RunResult r = machine.run(plan);
    // Write-allocate: the store triggers a read fill.
    EXPECT_DOUBLE_EQ(r.stats.get("mem.reads"), 1.0);
    EXPECT_DOUBLE_EQ(r.stats.get("cpu.memOps"), 1.0);
}

TEST(MachineTest, MultiCorePlansRunConcurrently)
{
    Machine machine(smallMachine());
    AccessPlan per_core;
    for (unsigned i = 0; i < 64; ++i)
        per_core.push_back(MemOp::compute(1000));
    // One core alone vs four cores with the same per-core work:
    // wall clock should be similar (compute is fully parallel).
    Machine solo(smallMachine());
    const Tick t1 = solo.run(per_core).ticks;
    const Tick t4 =
        machine.run(std::vector<AccessPlan>{per_core, per_core,
                                            per_core, per_core})
            .ticks;
    EXPECT_NEAR(static_cast<double>(t4.value()),
                static_cast<double>(t1.value()),
                static_cast<double>(t1.value()) * 0.01);
}

TEST(MachineTest, CLoadUsesColumnPath)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::cload(0x0)};
    const RunResult r = machine.run(plan);
    EXPECT_DOUBLE_EQ(r.stats.get("mem.colAccesses"), 1.0);
}

TEST(MachineTest, PinUnpinOpsExecute)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::cload(0x0), MemOp::fence(),
                    MemOp::pin(0x0, 64), MemOp::unpin(0x0, 64)};
    const RunResult r = machine.run(plan);
    EXPECT_DOUBLE_EQ(r.stats.get("cache.pinOps"), 2.0);
}

TEST(MachineTest, GatherPlanOnGsDram)
{
    Machine machine(smallMachine(mem::DeviceKind::GsDram));
    AccessPlan plan{MemOp::gload(0x0), MemOp::gload(0x40)};
    const RunResult r = machine.run(plan);
    EXPECT_DOUBLE_EQ(r.stats.get("mem.gathered"), 2.0);
    EXPECT_DOUBLE_EQ(r.stats.get("cache.bypasses"), 2.0);
}

TEST(MachineTest, DeterministicAcrossIdenticalRuns)
{
    AccessPlan plan;
    for (unsigned i = 0; i < 100; ++i) {
        plan.push_back(MemOp::load(Addr{i % 7} * 4096));
        plan.push_back(MemOp::compute(3));
    }
    Machine a(smallMachine()), b(smallMachine());
    EXPECT_EQ(a.run(plan).ticks, b.run(plan).ticks);
}

TEST(MachineTest, ResetRestoresColdCaches)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::load(0x1000)};
    const Tick cold = machine.run(plan).ticks;
    const Tick warm = machine.run(plan).ticks;
    machine.reset();
    const Tick cold_again = machine.run(plan).ticks;
    EXPECT_LT(warm, cold);
    EXPECT_EQ(cold_again, cold);
}

TEST(MachineTest, SequentialLoadTraceGolden)
{
    // End-to-end deterministic-trace regression: the exact finish
    // tick of a 4096-load streaming plan on the RC-NVM machine,
    // recorded from the post-bugfix scheduler. Any change to cache,
    // controller, or bus timing outcomes moves this number.
    MachineConfig config;
    config.device = mem::DeviceKind::RcNvm;
    AccessPlan plan;
    for (unsigned i = 0; i < 4096; ++i)
        plan.push_back(MemOp::load((Addr{i} * 64) & 0xffffffff));
    Machine machine(config);
    const RunResult r = machine.run(plan);
    EXPECT_EQ(r.ticks, Tick{42041500});
    EXPECT_EQ(r.stats.get("mem.requests"), 4096.0);
    // The derived bus-utilization stat is exported and meaningful:
    // a bus-saturated stream keeps the loaded channel mostly busy.
    EXPECT_GT(r.stats.get("mem.busUtilization"), 0.0);
    EXPECT_LE(r.stats.get("mem.busUtilization"), 1.0);
    // One scheduler wakeup per bus slot, none duplicated.
    EXPECT_EQ(r.stats.get("mem.wakeups"), 4095.0);
}

/** One mixed load/store plan per core, spread over all channels. */
std::vector<AccessPlan>
crossChannelPlans(const Machine &machine, unsigned ops_per_core)
{
    const mem::AddressMap &map = machine.map();
    const mem::Geometry &g = map.geometry();
    std::vector<AccessPlan> plans(4);
    for (unsigned core = 0; core < 4; ++core) {
        for (unsigned i = 0; i < ops_per_core; ++i) {
            mem::DecodedAddr d;
            d.channel = (core + i) % g.channels;
            d.rank = i % g.ranksPerChannel;
            d.bank = (i / 3) % g.banksPerRank;
            d.subarray = (i / 7) % g.subarraysPerBank;
            d.row = (core * 31 + i * 7) % g.rowsPerSubarray;
            d.col = ((i * 13) % (g.colsPerSubarray / 8)) * 8;
            const Addr a = map.encode(d, Orientation::Row);
            plans[core].push_back(i % 3 == 0 ? MemOp::store(a)
                                             : MemOp::load(a));
        }
    }
    return plans;
}

TEST(MachineTest, CrossChannelSmallLlcGolden)
{
    // Four cores spread over four channels behind a 64 KB LLC, so
    // capacity write-backs drain into other channels than the
    // demand misses that evicted them. Pins the finish tick and an
    // FNV-1a hash of the full stats JSON.
    MachineConfig config;
    config.device = mem::DeviceKind::RcNvm;
    mem::Geometry g = mem::geometryFor(mem::DeviceKind::RcNvm);
    g.channels = 4;
    config.geometry = g;
    config.hierarchy.l3 = cache::CacheConfig{"L3", 64 * 1024, 64, 8};
    config.seed = 42; // immune to an ambient RCNVM_SEED
    Machine machine(config);
    const RunResult r = machine.run(crossChannelPlans(machine, 400));
    std::ostringstream os;
    util::writeStatsJson(os, r.stats, "cross_channel", r.ticks);
    test::Fnv1a json;
    json.text(os.str());
    EXPECT_EQ(r.ticks, Tick{8723500});
    EXPECT_EQ(json.hash, 3676863729726900470ull);
    EXPECT_GT(r.stats.get("cache.writebacks"), 0.0);
}

/**
 * Sixteen plans over one shared footprint: 24 crossing blocks of 8 x 8
 * words, each contributing its 8 row lines and 8 column lines (384
 * lines in all). The blocks sit in the first 32 sets of a 128-set
 * L3, so the LLC holds about two thirds of the footprint at a time.
 */
std::vector<AccessPlan>
sharedStreamPlans(const Machine &machine, unsigned ops_per_core)
{
    const mem::AddressMap &map = machine.map();
    util::Random rng(16);
    std::vector<std::pair<Addr, Orientation>> lines;
    for (unsigned b = 0; b < 24; ++b) {
        const auto m = static_cast<unsigned>(rng.nextBounded(32));
        const auto k = static_cast<unsigned>(rng.nextBounded(32));
        for (unsigned j = 0; j < 8; ++j) {
            mem::DecodedAddr d;
            d.bank = b % 8;
            d.row = 8 * m + j;
            d.col = 8 * k;
            lines.emplace_back(map.encode(d, Orientation::Row),
                               Orientation::Row);
            d.row = 8 * m;
            d.col = 8 * k + j;
            lines.emplace_back(map.encode(d, Orientation::Column),
                               Orientation::Column);
        }
    }
    std::vector<AccessPlan> plans(16);
    for (AccessPlan &plan : plans) {
        for (unsigned i = 0; i < ops_per_core; ++i) {
            const auto &[line, o] = lines[rng.nextBounded(lines.size())];
            const bool row = o == Orientation::Row;
            if (rng.nextBool(0.3)) {
                const Addr a = line + 8 * rng.nextBounded(8);
                plan.push_back(row ? MemOp::store(a) : MemOp::cstore(a));
            } else {
                plan.push_back(row ? MemOp::load(line)
                                   : MemOp::cload(line));
            }
        }
    }
    return plans;
}

TEST(CoherenceGolden, SixteenCoreSharedStream)
{
    // Sixteen cores on RC-NVM behind 2 KB / 8 KB / 64 KB caches share
    // a footprint in both orientations with 30% stores: L3 victims
    // still held privately, remote dirty fetches, upgrade
    // invalidations and synonym partner writes are all common. Pins
    // the finish tick and an FNV-1a hash of the full stats JSON.
    MachineConfig config;
    config.device = mem::DeviceKind::RcNvm;
    config.hierarchy.cores = 16;
    config.hierarchy.l1 = cache::CacheConfig{"L1", 2 * 1024, 64, 8};
    config.hierarchy.l2 = cache::CacheConfig{"L2", 8 * 1024, 64, 8};
    config.hierarchy.l3 = cache::CacheConfig{"L3", 64 * 1024, 64, 8};
    config.seed = 42; // immune to an ambient RCNVM_SEED
    Machine machine(config);
    const RunResult r = machine.run(sharedStreamPlans(machine, 600));
    std::ostringstream os;
    util::writeStatsJson(os, r.stats, "shared_stream", r.ticks);
    test::Fnv1a json;
    json.text(os.str());
    EXPECT_GT(r.stats.get("cache.cohInvalidations"), 0.0);
    EXPECT_GT(r.stats.get("cache.cohRemoteFetches"), 0.0);
    EXPECT_GT(r.stats.get("cache.synonymUpdates"), 0.0);
    EXPECT_GT(r.stats.get("cache.writebacks"), 0.0);
    EXPECT_EQ(r.ticks, Tick{72040000});
    EXPECT_EQ(json.hash, 10347315062352181817ull);
}

TEST(MachineTest, ZeroPlansRunsToCompletion)
{
    Machine machine(smallMachine());
    const RunResult r =
        machine.run(std::vector<AccessPlan>{});
    EXPECT_EQ(r.ticks, Tick{0});
}

TEST(MachineTest, FewerPlansThanCoresLeavesTheRestIdle)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::compute(100)};
    // Two plans on a four-core machine: idle cores contribute no
    // time and no operations.
    const RunResult r =
        machine.run(std::vector<AccessPlan>{plan, plan});
    EXPECT_EQ(r.ticks, Tick{100u * 500u});
    EXPECT_DOUBLE_EQ(r.stats.get("cpu.memOps"), 0.0);
}

/** A generator replaying @p plan, as a streamed query core does. */
OpStream
replay(AccessPlan plan)
{
    for (const MemOp &op : plan)
        co_yield op;
}

TEST(MachineTest, ExhaustedStreamsIdleLikeEmptyPlans)
{
    // Core 1's stream is exhausted before the run starts, as a
    // streamed phase whose partition is empty on that core; run()
    // skips the equivalent empty plan. Same statistics and the same
    // number of executed events.
    const std::vector<AccessPlan> plans = {
        {MemOp::load(0x4000), MemOp::compute(10), MemOp::load(0x8000)},
        {},
        {MemOp::cload(0x10000), MemOp::fence(), MemOp::store(0x4040)}};
    Machine planned(smallMachine());
    const RunResult a = planned.run(plans);

    Machine streamed(smallMachine());
    std::vector<StreamOpSource> sources;
    sources.reserve(plans.size());
    std::vector<OpSource *> cores;
    for (const AccessPlan &plan : plans)
        cores.push_back(&sources.emplace_back(replay(plan)));
    ASSERT_EQ(cores[1]->peek(), nullptr);
    const RunResult b = streamed.runSources(cores);

    std::ostringstream ja, jb;
    util::writeStatsJson(ja, a.stats, "run", a.ticks);
    util::writeStatsJson(jb, b.stats, "run", b.ticks);
    EXPECT_EQ(ja.str(), jb.str());
    EXPECT_EQ(planned.eventQueue().executed(),
              streamed.eventQueue().executed());
}

TEST(MachineTest, BackToBackRunsNeedNoReset)
{
    Machine machine(smallMachine());
    AccessPlan plan{MemOp::load(0x4000), MemOp::compute(10)};
    const RunResult first = machine.run(plan);
    // A second run on the same machine starts immediately; its
    // counters continue accumulating (no implicit reset).
    const RunResult second = machine.run(plan);
    EXPECT_GT(first.ticks, Tick{0});
    EXPECT_GT(second.ticks, Tick{0});
    EXPECT_DOUBLE_EQ(second.stats.get("cpu.memOps"), 2.0);
    // Warm caches make the replay no slower than the cold run.
    EXPECT_LE(second.ticks, first.ticks);
}

TEST(MachineTest, ServeWithNoTrafficReturnsImmediately)
{
    Machine machine(smallMachine());
    const RunResult r = machine.serve();
    EXPECT_EQ(r.ticks, Tick{0});
}

TEST(MachineTest, StartOnCoreRunsUnderServe)
{
    Machine machine(smallMachine());
    const AccessPlan plan{MemOp::compute(100)};
    PlanOpSource source(plan);
    Tick finished{0};
    machine.startOnCore(2, source, false,
                        [&finished](Tick t) { finished = t; });
    EXPECT_FALSE(machine.coreIdle(2));
    EXPECT_TRUE(machine.coreIdle(0));
    const RunResult r = machine.serve();
    EXPECT_EQ(finished, Tick{100u * 500u});
    EXPECT_EQ(r.ticks, Tick{100u * 500u});
    EXPECT_TRUE(machine.coreIdle(2));
}

TEST(MachineTest, QueueWaitTailIsExported)
{
    Machine machine(smallMachine());
    AccessPlan plan;
    for (unsigned i = 0; i < 64; ++i)
        plan.push_back(MemOp::load(Addr{i} * 64));
    const RunResult r = machine.run(plan);
    // The p99 controller queue-wait formula rides in the snapshot:
    // an inclusive log2-bucket right edge, so zero or one below a
    // power of two.
    ASSERT_TRUE(r.stats.contains("mem.queueWaitP99"));
    const double p99 = r.stats.get("mem.queueWaitP99");
    EXPECT_GE(p99, 0.0);
    if (p99 > 0.0) {
        const double l = std::log2(p99 + 1.0);
        EXPECT_DOUBLE_EQ(l, std::floor(l));
    }
}

TEST(MachineDeathTest, TooManyPlansIsFatal)
{
    Machine machine(smallMachine());
    const std::vector<AccessPlan> plans(
        5, AccessPlan{MemOp::compute(1)});
    EXPECT_EXIT(machine.run(plans), ::testing::ExitedWithCode(1),
                "more plans");
}

} // namespace
} // namespace rcnvm::cpu
