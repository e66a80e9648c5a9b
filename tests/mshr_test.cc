/**
 * @file
 * Tests for the non-blocking miss path: MSHR coalescing, retry and
 * wakeup ordering when the MSHR file is exhausted, channel-queue
 * backpressure, and the core/hierarchy clock unification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/mshr.hh"
#include "cpu/machine.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"

namespace rcnvm::cache {
namespace {

struct Fixture {
    explicit Fixture(HierarchyConfig cfg = HierarchyConfig{})
        : config(cfg), hierarchy(config, eq, memory)
    {
    }

    sim::EventQueue eq;
    mem::MemorySystem memory{mem::DeviceKind::RcNvm, eq};
    HierarchyConfig config;
    Hierarchy hierarchy;

    Addr
    rowAddr(unsigned row, unsigned col, unsigned bank = 0)
    {
        mem::DecodedAddr d;
        d.bank = bank;
        d.row = row;
        d.col = col;
        return memory.map().encode(d, Orientation::Row);
    }

    CacheAccess
    read(Addr addr)
    {
        CacheAccess a;
        a.addr = addr;
        return a;
    }
};

TEST(MshrFileTest, AllocateFindFreeRoundTrip)
{
    MshrFile file(2);
    const LineKey a{0x1000, Orientation::Row};
    const LineKey b{0x2000, Orientation::Row};
    EXPECT_EQ(file.find(a), nullptr);

    MshrEntry *ea = file.allocate(a);
    ASSERT_NE(ea, nullptr);
    EXPECT_EQ(file.find(a), ea);
    EXPECT_FALSE(file.full());

    MshrEntry *eb = file.allocate(b);
    ASSERT_NE(eb, nullptr);
    EXPECT_TRUE(file.full());
    EXPECT_EQ(file.allocate(LineKey{0x3000, Orientation::Row}),
              nullptr);

    file.free(*ea);
    EXPECT_FALSE(file.full());
    EXPECT_EQ(file.find(a), nullptr);
    EXPECT_EQ(file.inUse(), 1u);
    EXPECT_DOUBLE_EQ(file.occupancy().max(), 2.0);
}

TEST(MshrTest, ConcurrentSameLineMissesCoalesce)
{
    Fixture f;
    const Addr addr = f.rowAddr(7, 0);
    unsigned done = 0;
    Tick t0{0}, t1{0};

    // Two cores miss on the same line in the same cycle: one memory
    // request, two completions.
    ASSERT_TRUE(f.hierarchy.access(0, f.read(addr),
                                   [&](Tick t) { ++done; t0 = t; }));
    ASSERT_TRUE(f.hierarchy.access(1, f.read(addr),
                                   [&](Tick t) { ++done; t1 = t; }));
    f.eq.run();

    EXPECT_EQ(done, 2u);
    EXPECT_GT(t0, Tick{0});
    EXPECT_GT(t1, Tick{0});
    const auto cs = f.hierarchy.stats();
    EXPECT_DOUBLE_EQ(cs.get("cache.llcMisses"), 2.0);
    EXPECT_DOUBLE_EQ(cs.get("cache.mshrCoalesced"), 1.0);
    EXPECT_DOUBLE_EQ(f.memory.stats().get("mem.reads"), 1.0);

    // Both cores got a copy: their next accesses hit in L1.
    Tick hit0{0}, hit1{0};
    const Tick start = f.eq.now();
    ASSERT_TRUE(f.hierarchy.access(
        0, f.read(addr), [&](Tick t) { hit0 = t - start; }));
    ASSERT_TRUE(f.hierarchy.access(
        1, f.read(addr), [&](Tick t) { hit1 = t - start; }));
    f.eq.run();
    EXPECT_EQ(hit0, f.config.cyc(kL1Latency));
    EXPECT_EQ(hit1, f.config.cyc(kL1Latency));
}

TEST(MshrTest, CoalescedWriteLeavesLineModified)
{
    Fixture f;
    const Addr addr = f.rowAddr(9, 0);
    unsigned done = 0;
    ASSERT_TRUE(f.hierarchy.access(0, f.read(addr),
                                   [&](Tick) { ++done; }));
    CacheAccess w = f.read(addr);
    w.isWrite = true;
    ASSERT_TRUE(f.hierarchy.access(1, w, [&](Tick) { ++done; }));
    f.eq.run();
    EXPECT_EQ(done, 2u);
    EXPECT_DOUBLE_EQ(f.memory.stats().get("mem.reads"), 1.0);

    // Core 1 wrote the line: a third core's read must pay the
    // remote-dirty fetch penalty, proving the write survived the
    // coalesced fill.
    Tick t2{0};
    const Tick start = f.eq.now();
    ASSERT_TRUE(f.hierarchy.access(2, f.read(addr),
                                   [&](Tick t) { t2 = t - start; }));
    f.eq.run();
    const Tick l3 = f.config.cyc(kL1Latency + kL2Latency + kL3Latency);
    EXPECT_EQ(t2, l3 + f.config.cyc(kRemoteFetchPenalty));
}

TEST(MshrTest, MshrFullRefusesThenWakes)
{
    HierarchyConfig cfg;
    cfg.mshrs = 1;
    Fixture f(cfg);

    Tick first_done{0};
    Tick woken_at{0};
    ASSERT_TRUE(f.hierarchy.access(
        0, f.read(f.rowAddr(1, 0)),
        [&](Tick t) { first_done = t; }));

    // The only MSHR is taken: a different-line miss must be refused
    // and counted, without invoking its continuation.
    f.hierarchy.setRetryHandler(
        1, [&] { woken_at = f.eq.now(); });
    bool second_done = false;
    EXPECT_FALSE(f.hierarchy.access(1, f.read(f.rowAddr(2, 0)),
                                    [&](Tick) { second_done = true; }));
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.retries"), 1.0);

    f.eq.run();
    EXPECT_GT(first_done, Tick{0});
    EXPECT_FALSE(second_done);
    // Wakeup ordering: the retry notification fires when the fill
    // frees the MSHR, which is before the first access's private
    // fill latency elapses.
    EXPECT_GT(woken_at, Tick{0});
    EXPECT_LE(woken_at, first_done);

    // Re-presenting after the wakeup succeeds.
    EXPECT_TRUE(f.hierarchy.access(1, f.read(f.rowAddr(2, 0)),
                                   [&](Tick) { second_done = true; }));
    f.eq.run();
    EXPECT_TRUE(second_done);
}

TEST(MshrTest, PrefetchCoalescesIntoDemandMiss)
{
    Fixture f;
    const Addr addr = f.rowAddr(3, 0);
    unsigned done = 0;
    ASSERT_TRUE(f.hierarchy.access(0, f.read(addr),
                                   [&](Tick) { ++done; }));
    CacheAccess p = f.read(addr);
    p.prefetchL3 = true;
    p.orient = Orientation::Row;
    ASSERT_TRUE(f.hierarchy.access(1, p, [&](Tick) { ++done; }));
    f.eq.run();
    EXPECT_EQ(done, 2u);
    EXPECT_DOUBLE_EQ(f.memory.stats().get("mem.reads"), 1.0);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.mshrCoalesced"),
                     1.0);
}

TEST(MshrTest, OccupancyStatIsExported)
{
    Fixture f;
    ASSERT_TRUE(
        f.hierarchy.access(0, f.read(f.rowAddr(1, 0)), [](Tick) {}));
    ASSERT_TRUE(
        f.hierarchy.access(0, f.read(f.rowAddr(2, 0)), [](Tick) {}));
    f.eq.run();
    const auto s = f.hierarchy.stats();
    EXPECT_DOUBLE_EQ(s.get("cache.maxMshrOccupancy"), 2.0);
    EXPECT_GT(s.get("cache.mshrOccupancy"), 0.0);
}

} // namespace
} // namespace rcnvm::cache

namespace rcnvm::cpu {
namespace {

TEST(BackpressureTest, TinyQueuesCompleteWithoutDeadlock)
{
    // Four cores hammer distinct lines through per-channel queues of
    // depth 2: far more outstanding work than the memory system will
    // accept at once. The run must complete (Machine::run panics on
    // deadlock) with the queues never overshooting their capacity.
    MachineConfig cfg;
    cfg.device = mem::DeviceKind::RcNvm;
    cfg.memQueueCapacity = 2;
    cfg.hierarchy.mshrs = 8;

    Machine machine(cfg);
    std::vector<AccessPlan> plans(4);
    for (unsigned c = 0; c < 4; ++c) {
        for (unsigned i = 0; i < 128; ++i) {
            const Addr a = Addr{c} * (1u << 20) + Addr{i} * 64;
            plans[c].push_back(i % 4 == 3 ? MemOp::store(a)
                                          : MemOp::load(a));
        }
    }
    const RunResult r = machine.run(plans);

    EXPECT_GT(r.ticks, Tick{0});
    EXPECT_DOUBLE_EQ(r.stats.get("cpu.memOps"), 4.0 * 128.0);
    EXPECT_LE(r.stats.get("mem.maxQueueOccupancy"), 2.0);
    // The path is saturated: refusals and queue rejections happened
    // and every one of them was retried to completion.
    EXPECT_GT(r.stats.get("mem.rejectedIssues"), 0.0);
    EXPECT_EQ(r.stats.get("cache.retries"), r.stats.get("cpu.retries"));
    EXPECT_GE(r.stats.get("cpu.retryStallTicks"), 0.0);
}

TEST(BackpressureTest, ParkedPacketsDrainBeforeTheRunEnds)
{
    // Depth-2 controller queues refuse packets the hierarchy has
    // already committed to, so it parks them (deferred demand
    // packets, write-backs) mid-run; Machine::run panics unless the
    // parked lists are empty once the event queue drains.
    MachineConfig cfg;
    cfg.device = mem::DeviceKind::RcNvm;
    cfg.memQueueCapacity = 2;
    cfg.hierarchy.mshrs = 8;
    cfg.epochTicks = Tick{5000};
    Machine machine(cfg);
    machine.epochSampler()->addGauge(
        "parked", [h = &machine.hierarchy()] {
            return static_cast<double>(h->parkedPackets());
        });
    std::vector<AccessPlan> plans(4);
    for (unsigned c = 0; c < 4; ++c) {
        for (unsigned i = 0; i < 128; ++i) {
            const Addr a = Addr{c} * (1u << 20) + Addr{i} * 64;
            plans[c].push_back(i % 4 == 3 ? MemOp::store(a)
                                          : MemOp::load(a));
        }
    }
    const RunResult r = machine.run(plans);

    const auto &names = r.series.names;
    const std::size_t col = static_cast<std::size_t>(
        std::find(names.begin(), names.end(), "parked") -
        names.begin());
    ASSERT_LT(col, names.size());
    double peak = 0;
    for (const std::vector<double> &row : r.series.rows)
        peak = std::max(peak, row[col]);
    EXPECT_GT(peak, 0.0);
    EXPECT_EQ(machine.hierarchy().parkedPackets(), 0u);
}

TEST(BackpressureTest, SharedLinesCoalesceUnderStress)
{
    MachineConfig cfg;
    cfg.device = mem::DeviceKind::RcNvm;
    cfg.memQueueCapacity = 4;
    Machine machine(cfg);

    // All four cores walk the same lines concurrently.
    std::vector<AccessPlan> plans(4);
    for (unsigned c = 0; c < 4; ++c)
        for (unsigned i = 0; i < 64; ++i)
            plans[c].push_back(MemOp::load(Addr{i} * 64));
    const RunResult r = machine.run(plans);

    EXPECT_GT(r.stats.get("cache.mshrCoalesced"), 0.0);
    EXPECT_LE(r.stats.get("mem.maxQueueOccupancy"), 4.0);
    EXPECT_LT(r.stats.get("mem.requests"),
              r.stats.get("cache.llcMisses"));
}

TEST(ClockUnificationTest, CoreClockFollowsHierarchyConfig)
{
    // Halving the clock (doubling the period) must double the time a
    // pure-compute plan takes: the core has no clock of its own.
    MachineConfig fast;
    MachineConfig slow;
    slow.hierarchy.cpuPeriod = 2 * fast.hierarchy.cpuPeriod;

    const AccessPlan plan{MemOp::compute(1000)};
    const RunResult rf = Machine(fast).run(plan);
    const RunResult rs = Machine(slow).run(plan);
    EXPECT_EQ(rf.ticks, fast.hierarchy.cpuPeriod * 1000u);
    EXPECT_EQ(rs.ticks, 2 * rf.ticks);
}

} // namespace
} // namespace rcnvm::cpu
