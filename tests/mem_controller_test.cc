/**
 * @file
 * Tests for the FR-FCFS channel controller and the MemorySystem
 * facade: scheduling order, starvation control, statistics, and
 * per-device capability enforcement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "fnv1a.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"

namespace rcnvm::mem {
namespace {

struct Fixture {
    sim::EventQueue eq;
    AddressMap map{Geometry::rcNvm()};
    TimingParams timing = TimingParams::rcNvm();
};

MemPacket
makeReq(const AddressMap &map, unsigned bank, unsigned subarray,
        unsigned row, unsigned col, Orientation o,
        std::function<void(Tick)> cb)
{
    DecodedAddr d;
    d.bank = bank;
    d.subarray = subarray;
    d.row = row;
    d.col = col;
    MemPacket req;
    req.addr = map.encode(d, o);
    req.orient = o;
    req.onComplete = std::move(cb);
    return req;
}

TEST(Controller, CompletesASingleRequest)
{
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq);
    Tick done{0};
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 0, Orientation::Row,
                         [&](Tick t) { done = t; }));
    f.eq.run();
    EXPECT_EQ(done,
              f.timing.cyc(f.timing.tRCD + f.timing.tCAS +
                           f.timing.tBURST));
    EXPECT_EQ(ctrl.stats().reads.value(), 1u);
    EXPECT_EQ(ctrl.stats().bufferMisses.value(), 1u);
}

TEST(Controller, FrFcfsPrefersBufferHit)
{
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq);
    std::vector<int> order;
    // Open row 5 with a first request.
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 0, Orientation::Row,
                         [&](Tick) { order.push_back(0); }));
    f.eq.run();
    // The first request issues immediately and occupies the bank;
    // while it is busy an older conflicting request and a younger
    // row hit queue up. FR-FCFS serves the hit first.
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 8, Orientation::Row,
                         [&](Tick) { order.push_back(1); }));
    ctrl.enqueue(makeReq(f.map, 0, 0, 9, 0, Orientation::Row,
                         [&](Tick) { order.push_back(2); }));
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 16, Orientation::Row,
                         [&](Tick) { order.push_back(3); }));
    f.eq.run();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 3); // hit bypassed the older conflict
    EXPECT_EQ(order[3], 2);
    EXPECT_GE(ctrl.stats().bufferHits.value(), 2u);
}

TEST(Controller, StarvationCapBoundsBypassing)
{
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq);
    // Open row 5.
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 0, Orientation::Row,
                         [](Tick) {}));
    f.eq.run();
    // One starving conflict plus a long stream of row hits that
    // arrive while the bank is busy.
    Tick conflict_done{0};
    Tick last_hit_done{0};
    ctrl.enqueue(makeReq(f.map, 0, 0, 9, 0, Orientation::Row,
                         [&](Tick t) { conflict_done = t; }));
    for (unsigned i = 0; i < 64; ++i) {
        ctrl.enqueue(makeReq(f.map, 0, 0, 5, i * 8,
                             Orientation::Row,
                             [&](Tick t) { last_hit_done = t; }));
    }
    f.eq.run();
    // The conflict must not wait for all 64 hits.
    EXPECT_LT(conflict_done, last_hit_done);
}

TEST(Controller, GatheredTransferOccupiesTwoBusSlots)
{
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq);
    // A plain read holds the bus for one burst slot.
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 0, Orientation::Row,
                         [](Tick) {}));
    f.eq.run();
    const Tick slot = f.timing.cyc(f.timing.tBURST);
    EXPECT_EQ(ctrl.stats().busBusyTicks.value(), slot.value());
    // A gathered line's shuffled-column transfer costs two slots.
    MemPacket req = makeReq(f.map, 0, 0, 5, 8, Orientation::Row,
                            [](Tick) {});
    req.gathered = true;
    ctrl.enqueue(std::move(req));
    f.eq.run();
    EXPECT_EQ(ctrl.stats().busBusyTicks.value(), (slot * 3u).value());
    EXPECT_EQ(ctrl.stats().gathered.value(), 1u);
}

TEST(Controller, StarvationCountsNonHitBypasses)
{
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq);
    std::vector<int> order;
    // Bank 0 starts serving row 5 at t=0; the head below arrives
    // while the bank is busy and is not ready for a while.
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 0, Orientation::Row,
                         [&](Tick) { order.push_back(-2); }));
    // The head: a bank-0 conflict, globally oldest from here on.
    ctrl.enqueue(makeReq(f.map, 0, 0, 9, 0, Orientation::Row,
                         [&](Tick) { order.push_back(-1); }));
    // Younger misses in idle banks become bus-ready while the head
    // still waits for its bank; each issue bypasses the head and
    // must count toward the starvation cap exactly like buffer-hit
    // bypasses do.
    for (unsigned i = 0; i < 2; ++i) {
        ctrl.enqueue(makeReq(f.map, 2 + i, 0, 11 + i, 0,
                             Orientation::Row,
                             [&, i](Tick) {
                                 order.push_back(static_cast<int>(i));
                             }));
    }
    // A long stream of row-5 buffer hits in the head's own bank:
    // FR-FCFS prefers them over the conflicting head on every tied
    // slot, so only the cap ends the bypassing.
    for (unsigned i = 0; i < 64; ++i) {
        ctrl.enqueue(makeReq(f.map, 0, 0, 5, 8 * (1 + i),
                             Orientation::Row,
                             [&, i](Tick) {
                                 order.push_back(100 +
                                                 static_cast<int>(i));
                             }));
    }
    f.eq.run();
    ASSERT_EQ(order.size(), 68u);
    const auto it = std::find(order.begin(), order.end(), -1);
    ASSERT_NE(it, order.end());
    const auto idx = it - order.begin();
    // The head may be bypassed at most starvationCap (16) times in
    // total -- misses and hits combined -- so it completes no later
    // than position 17 (the row-5 access plus 16 bypasses). If the
    // two inter-bank misses were not counted, sixteen hits would
    // bypass on top of them and push the head past that bound.
    EXPECT_GE(idx, 10);
    EXPECT_LE(idx, 17);
}

TEST(Controller, WakeupsAreCoalesced)
{
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq);
    // A burst of conflicting same-bank requests: none after the
    // first is ready at enqueue time, so each needs a future wakeup,
    // but re-arming an identical-or-later wakeup must be elided and
    // superseded wakeups must not fire.
    unsigned completions = 0;
    for (unsigned i = 0; i < 8; ++i) {
        ctrl.enqueue(makeReq(f.map, 0, 0, i, 0, Orientation::Row,
                             [&](Tick) { ++completions; }));
    }
    f.eq.run();
    EXPECT_EQ(completions, 8u);
    // Each request needs at most one wakeup; coalescing must not
    // let stale generations run on top of that. The exact count is
    // deterministic: seven (the first request issues at enqueue).
    EXPECT_LE(ctrl.stats().wakeups.value(), 8u);
    EXPECT_EQ(ctrl.stats().wakeups.value(), 7u);
}

TEST(Controller, DeterministicTraceRegression)
{
    // Drives a fixed pseudo-random mix through one controller and
    // pins the exact completion ticks via a checksum. Guards the
    // scheduler rewrite: any change to per-request timing outcomes
    // (issue order, bus slots, buffer management) changes the hash.
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq);
    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
    test::Fnv1a hash;
    unsigned completions = 0;
    for (unsigned i = 0; i < 96; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t r = lcg >> 33;
        const unsigned bank = r % 8;
        const unsigned row = (r >> 3) % 16;
        const unsigned col = ((r >> 7) % 32) * 8;
        const Orientation o = (r >> 12) % 4 == 0
                                  ? Orientation::Column
                                  : Orientation::Row;
        MemPacket req = makeReq(
            f.map, bank, 0, row, col, o, [&, i](Tick t) {
                ++completions;
                hash.word((std::uint64_t{i} << 48) ^ t.value());
            });
        req.isWrite = (r >> 14) % 4 == 0;
        req.gathered = (r >> 16) % 8 == 0;
        ctrl.enqueue(std::move(req));
        // Interleave arrival with service so queues stay partially
        // full and the scheduler reorders across banks.
        if (i % 6 == 5)
            f.eq.runUntil(f.eq.now() + f.timing.cyc(f.timing.tBURST));
    }
    f.eq.run();
    EXPECT_EQ(completions, 96u);
    // Golden values recorded from the post-bugfix scheduler. A
    // mismatch means per-request timing outcomes changed.
    EXPECT_EQ(hash.hash, 4240260166787096171ull);
    EXPECT_EQ(f.eq.now(), Tick{1402500});
    EXPECT_EQ(ctrl.stats().bufferHits.value(), 3u);
}

/** A scheduling policy and whether each subarray has its own buffers. */
using ScheduleParam = std::tuple<SchedPolicyKind, bool>;

class Controller : public ::testing::TestWithParam<ScheduleParam>
{
};

TEST_P(Controller, ScheduleGolden)
{
    // 512 seeded requests over 2 ranks x 8 banks x 4 subarrays in
    // both orientations, half of them revisiting the previous
    // request's buffer so hits queue behind conflicts. 1 in 4 is a
    // write, 1 in 8 gathered and 1 in 4 flagged. They go into a
    // 4-deep queue without checking canAccept(), as write-backs may
    // overshoot it, interleaved with service. Pins every completion
    // tick (folded into an FNV-1a hash), the final tick and the
    // wakeup and buffer counters.
    const auto [sched, salp] = GetParam();
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq, 4, salp, 0, sched);
    std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
    test::Fnv1a hash;
    unsigned completions = 0;
    DecodedAddr d;
    Orientation o = Orientation::Row;
    for (unsigned i = 0; i < 512; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t r = lcg >> 24;
        if (i == 0 || r % 2 == 0) {
            d.rank = (r >> 1) % 2;
            d.bank = (r >> 2) % 8;
            d.subarray = (r >> 5) % 4;
            d.row = ((r >> 7) % 16) * 8;
            d.col = ((r >> 11) % 16) * 8;
            o = (r >> 15) % 2 == 0 ? Orientation::Row
                                   : Orientation::Column;
        }
        // Another line of the same row or column buffer.
        const unsigned offset = ((r >> 16) % 16) * 8;
        (o == Orientation::Row ? d.col : d.row) = offset;
        MemPacket req;
        req.addr = f.map.encode(d, o);
        req.orient = o;
        req.isWrite = (r >> 20) % 4 == 0;
        req.gathered = (r >> 22) % 8 == 0;
        req.priority = (r >> 25) % 4 == 0;
        req.onComplete = [&, i](Tick t) {
            ++completions;
            hash.word((std::uint64_t{i} << 48) ^ t.value());
        };
        ctrl.enqueue(std::move(req));
        if (i % 4 == 3)
            f.eq.runUntil(f.eq.now() +
                          f.timing.cyc(f.timing.tBURST) * 4u);
    }
    f.eq.run();
    EXPECT_EQ(completions, 512u);
    EXPECT_EQ(ctrl.queued(), 0u);
    // The queue overshot its depth, so the overshoot path ran.
    EXPECT_GT(ctrl.stats().queueOccupancy.max(), 4.0);

    struct Golden {
        std::uint64_t hash;
        Tick end;
        std::uint64_t wakeups;
        std::uint64_t bufferHits;
        std::uint64_t orientationSwitches;
    };
    // Captured before the controller cached per-bank views.
    constexpr Golden goldens[] = {
        // FR-FCFS, one buffer pair per bank
        {6854672706870344150ull, Tick{6612500}, 477, 259, 112},
        // FR-FCFS, one buffer pair per subarray (SALP)
        {6806750799590382635ull, Tick{6530000}, 489, 263, 93},
        // read priority
        {1580892311741055329ull, Tick{6857500}, 480, 259, 112},
        // read priority, SALP
        {379895782591158168ull, Tick{6640000}, 491, 263, 93},
    };
    const Golden &g =
        goldens[(sched == SchedPolicyKind::ReadPriority ? 2 : 0) +
                (salp ? 1 : 0)];
    EXPECT_EQ(hash.hash, g.hash);
    EXPECT_EQ(f.eq.now(), g.end);
    EXPECT_EQ(ctrl.stats().wakeups.value(), g.wakeups);
    EXPECT_EQ(ctrl.stats().bufferHits.value(), g.bufferHits);
    EXPECT_EQ(ctrl.stats().orientationSwitches.value(),
              g.orientationSwitches);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, Controller,
    ::testing::Combine(::testing::Values(SchedPolicyKind::FrFcfs,
                                         SchedPolicyKind::ReadPriority),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ScheduleParam> &info) {
        return std::string(std::get<0>(info.param) ==
                                   SchedPolicyKind::FrFcfs
                               ? "FrFcfs"
                               : "ReadPriority") +
               (std::get<1>(info.param) ? "Salp" : "");
    });

TEST(Controller, ReadPriorityServesOltpReadsFirst)
{
    // The FrFcfsPrefersBufferHit scenario with one twist: the older
    // conflicting request carries the OLTP-class priority flag.
    // Plain FR-FCFS lets the younger open-row hits bypass it; the
    // read-priority policy serves the flagged read the moment the
    // bank frees, ahead of every unflagged hit.
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq, 32, false, 0,
                           SchedPolicyKind::ReadPriority);
    std::vector<int> order;
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 0, Orientation::Row,
                         [&](Tick) { order.push_back(0); }));
    f.eq.run();
    // This hit issues immediately and occupies the bank; the flagged
    // conflict and a younger plain hit queue up behind it.
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 8, Orientation::Row,
                         [&](Tick) { order.push_back(1); }));
    MemPacket pri = makeReq(f.map, 0, 0, 9, 0, Orientation::Row,
                            [&](Tick) { order.push_back(2); });
    pri.priority = true;
    ctrl.enqueue(std::move(pri));
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 16, Orientation::Row,
                         [&](Tick) { order.push_back(3); }));
    f.eq.run();
    ASSERT_EQ(order.size(), 4u);
    // FR-FCFS would serve the younger hit (3) before the conflict
    // (2); the flagged read goes first.
    EXPECT_EQ(order[2], 2);
    EXPECT_EQ(order[3], 3);
}

TEST(Controller, ReadPriorityDoesNotPromoteWrites)
{
    // Only latency-class *reads* ride the upper tier: a write
    // carrying the flag (which real issuers never produce, but the
    // policy must not depend on that) competes in the lower tier,
    // where a younger open-row read hit still bypasses it.
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq, 32, false, 0,
                           SchedPolicyKind::ReadPriority);
    std::vector<int> order;
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 0, Orientation::Row,
                         [&](Tick) { order.push_back(0); }));
    f.eq.run();
    // Occupy the bank with a hit, then queue the flagged write and a
    // younger plain hit: the hit must still bypass the write.
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 8, Orientation::Row,
                         [&](Tick) { order.push_back(1); }));
    MemPacket w = makeReq(f.map, 0, 0, 9, 0, Orientation::Row,
                          [&](Tick) { order.push_back(2); });
    w.isWrite = true;
    w.priority = true;
    ctrl.enqueue(std::move(w));
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 16, Orientation::Row,
                         [&](Tick) { order.push_back(3); }));
    f.eq.run();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[2], 3); // the hit bypassed the flagged write
    EXPECT_EQ(order[3], 2);
}

TEST(Controller, TracksOrientationSwitches)
{
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq);
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 3, Orientation::Row,
                         [](Tick) {}));
    f.eq.run();
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 3, Orientation::Column,
                         [](Tick) {}));
    f.eq.run();
    EXPECT_EQ(ctrl.stats().orientationSwitches.value(), 1u);
    EXPECT_EQ(ctrl.stats().colAccesses.value(), 1u);
    EXPECT_EQ(ctrl.stats().rowAccesses.value(), 1u);
}

TEST(Controller, IndependentBanksOverlapCommands)
{
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq);
    Tick done_a{0}, done_b{0};
    ctrl.enqueue(makeReq(f.map, 0, 0, 5, 0, Orientation::Row,
                         [&](Tick t) { done_a = t; }));
    ctrl.enqueue(makeReq(f.map, 1, 0, 5, 0, Orientation::Row,
                         [&](Tick t) { done_b = t; }));
    f.eq.run();
    // Bank commands overlap; only the bursts serialise on the bus.
    const Tick serial = 2 * f.timing.cyc(f.timing.tRCD +
                                         f.timing.tCAS +
                                         f.timing.tBURST);
    EXPECT_LT(std::max(done_a, done_b), serial);
    EXPECT_EQ(std::max(done_a, done_b) - std::min(done_a, done_b),
              f.timing.cyc(f.timing.tBURST));
}

TEST(Controller, QueueWaitSampled)
{
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq);
    for (unsigned i = 0; i < 4; ++i) {
        ctrl.enqueue(makeReq(f.map, 0, 0, i, 0, Orientation::Row,
                             [](Tick) {}));
    }
    f.eq.run();
    EXPECT_EQ(ctrl.stats().queueWaitTicks.count(), 4u);
    EXPECT_GT(ctrl.stats().queueWaitTicks.max(), 0.0);
}

TEST(Controller, CanAcceptReflectsCapacity)
{
    Fixture f;
    ChannelController ctrl(f.map, f.timing, f.eq, 2);
    EXPECT_TRUE(ctrl.canAccept());
    ctrl.enqueue(makeReq(f.map, 0, 0, 0, 0, Orientation::Row,
                         [](Tick) {}));
    ctrl.enqueue(makeReq(f.map, 0, 0, 1, 0, Orientation::Row,
                         [](Tick) {}));
    // Depending on immediate issue, occupancy may already be lower;
    // after run everything drains.
    f.eq.run();
    EXPECT_TRUE(ctrl.canAccept());
    EXPECT_EQ(ctrl.queued(), 0u);
}

TEST(MemorySystemTest, GeometryPresetsPerKind)
{
    EXPECT_EQ(geometryFor(DeviceKind::Dram).colsPerSubarray, 256u);
    EXPECT_EQ(geometryFor(DeviceKind::GsDram).colsPerSubarray, 256u);
    EXPECT_EQ(geometryFor(DeviceKind::Rram).colsPerSubarray, 1024u);
    EXPECT_EQ(geometryFor(DeviceKind::RcNvm).colsPerSubarray, 1024u);
}

TEST(MemorySystemTest, RoutesAndAggregatesStats)
{
    sim::EventQueue eq;
    MemorySystem mem(DeviceKind::RcNvm, eq);
    unsigned completions = 0;
    for (unsigned ch = 0; ch < 2; ++ch) {
        DecodedAddr d;
        d.channel = ch;
        d.row = 7;
        MemPacket req;
        req.addr = mem.map().encode(d, Orientation::Row);
        req.onComplete = [&](Tick) { ++completions; };
        mem.issue(std::move(req));
    }
    eq.run();
    EXPECT_EQ(completions, 2u);
    EXPECT_DOUBLE_EQ(mem.stats().get("mem.requests"), 2.0);
    EXPECT_DOUBLE_EQ(mem.stats().get("mem.reads"), 2.0);
}

TEST(MemorySystemTest, BusUtilizationExported)
{
    sim::EventQueue eq;
    MemorySystem mem(DeviceKind::RcNvm, eq);
    const TimingParams t = TimingParams::rcNvm();
    DecodedAddr d;
    d.row = 7;
    MemPacket req;
    req.addr = mem.map().encode(d, Orientation::Row);
    Tick done{0};
    req.onComplete = [&](Tick t) { done = t; };
    mem.issue(std::move(req));
    eq.run();
    ASSERT_GT(done, Tick{0});
    // One read holds channel 0's bus for one burst slot; the stats
    // window spans eq.now() on each of the two channels.
    const double busy = static_cast<double>(t.cyc(t.tBURST).value());
    const double elapsed = 2.0 * static_cast<double>(eq.now().value());
    EXPECT_DOUBLE_EQ(mem.stats().get("mem.busBusyTicks"), busy);
    EXPECT_DOUBLE_EQ(mem.stats().get("mem.busUtilization"),
                     busy / elapsed);
    EXPECT_GT(mem.stats().get("mem.busUtilization"), 0.0);
}

TEST(MemorySystemTest, BufferMissRateComputed)
{
    sim::EventQueue eq;
    MemorySystem mem(DeviceKind::RcNvm, eq);
    DecodedAddr d;
    d.row = 3;
    for (int i = 0; i < 4; ++i) {
        d.col = static_cast<unsigned>(8 * i);
        MemPacket req;
        req.addr = mem.map().encode(d, Orientation::Row);
        mem.issue(std::move(req));
        eq.run();
    }
    // 1 miss + 3 hits -> 25% miss rate.
    EXPECT_DOUBLE_EQ(mem.stats().get("mem.bufferMissRate"), 0.25);
}

TEST(MemorySystemDeathTest, ColumnAccessRejectedOnDram)
{
    sim::EventQueue eq;
    MemorySystem mem(DeviceKind::Dram, eq);
    MemPacket req;
    req.orient = Orientation::Column;
    EXPECT_DEATH(mem.issue(std::move(req)),
                 "no column access support");
}

TEST(MemorySystemDeathTest, GatherRejectedOnPlainDram)
{
    sim::EventQueue eq;
    MemorySystem mem(DeviceKind::Dram, eq);
    MemPacket req;
    req.gathered = true;
    EXPECT_DEATH(mem.issue(std::move(req)), "gathered request");
}

TEST(MemorySystemTest, GatherAcceptedOnGsDram)
{
    sim::EventQueue eq;
    MemorySystem mem(DeviceKind::GsDram, eq);
    MemPacket req;
    req.gathered = true;
    bool done = false;
    req.onComplete = [&](Tick) { done = true; };
    mem.issue(std::move(req));
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(mem.stats().get("mem.gathered"), 1.0);
}

} // namespace
} // namespace rcnvm::mem
