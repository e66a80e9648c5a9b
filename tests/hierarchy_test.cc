/**
 * @file
 * Tests for the cache hierarchy: level latencies, MESI coherence
 * actions, the directory's sharer masks, the synonym engine
 * (crossing bits, write propagation, eviction clean-up), pinning,
 * and gather bypass.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"

namespace rcnvm::cache {
namespace {

struct Fixture {
    sim::EventQueue eq;
    mem::MemorySystem memory{mem::DeviceKind::RcNvm, eq};
    HierarchyConfig config;
    Hierarchy hierarchy{config, eq, memory};

    /** Blocking access helper: returns the completion tick. */
    Tick
    access(unsigned core, Addr addr, Orientation o, bool write)
    {
        Tick done{0};
        CacheAccess a;
        a.addr = addr;
        a.orient = o;
        a.isWrite = write;
        const Tick start = eq.now();
        EXPECT_TRUE(hierarchy.access(core, a,
                                     [&](Tick t) { done = t - start; }));
        eq.run();
        return done;
    }

    Addr
    rowAddr(unsigned row, unsigned col, unsigned bank = 0)
    {
        mem::DecodedAddr d;
        d.bank = bank;
        d.row = row;
        d.col = col;
        return memory.map().encode(d, Orientation::Row);
    }

    Addr
    colAddr(unsigned row, unsigned col, unsigned bank = 0)
    {
        mem::DecodedAddr d;
        d.bank = bank;
        d.row = row;
        d.col = col;
        return memory.map().encode(d, Orientation::Column);
    }
};

TEST(HierarchyTest, MissThenL1Hit)
{
    Fixture f;
    const Tick miss = f.access(0, f.rowAddr(5, 0), Orientation::Row,
                               false);
    const Tick hit = f.access(0, f.rowAddr(5, 0), Orientation::Row,
                              false);
    EXPECT_GT(miss, hit);
    EXPECT_EQ(hit, f.config.cyc(f.config.l1Latency));
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.llcMisses"), 1.0);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.l1Hits"), 1.0);
}

TEST(HierarchyTest, SameLineDifferentWordHitsL1)
{
    Fixture f;
    f.access(0, f.rowAddr(5, 0), Orientation::Row, false);
    const Tick hit = f.access(0, f.rowAddr(5, 3), Orientation::Row,
                              false);
    EXPECT_EQ(hit, f.config.cyc(f.config.l1Latency));
}

TEST(HierarchyTest, MissLatencyIncludesMemory)
{
    Fixture f;
    const Tick miss = f.access(0, f.rowAddr(5, 0), Orientation::Row,
                               false);
    const Tick path =
        f.config.cyc(f.config.l1Latency + f.config.l2Latency +
         f.config.l3Latency);
    EXPECT_GT(miss, path);
}

TEST(HierarchyTest, CrossCoreReadHitsL3)
{
    Fixture f;
    f.access(0, f.rowAddr(5, 0), Orientation::Row, false);
    const Tick other = f.access(1, f.rowAddr(5, 0), Orientation::Row,
                                false);
    const Tick l3 = f.config.cyc(f.config.l1Latency + f.config.l2Latency +
                     f.config.l3Latency);
    EXPECT_EQ(other, l3);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.llcMisses"), 1.0);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.l3Hits"), 1.0);
}

TEST(HierarchyTest, RemoteDirtyFetchPaysPenalty)
{
    Fixture f;
    f.access(0, f.rowAddr(5, 0), Orientation::Row, true); // dirty@0
    const Tick other = f.access(1, f.rowAddr(5, 0), Orientation::Row,
                                false);
    const Tick l3 = f.config.cyc(f.config.l1Latency + f.config.l2Latency +
                     f.config.l3Latency);
    EXPECT_EQ(other,
              l3 + f.config.cyc(f.config.remoteFetchPenalty));
    EXPECT_DOUBLE_EQ(
        f.hierarchy.stats().get("cache.cohRemoteFetches"), 1.0);
}

TEST(HierarchyTest, WriteInvalidatesOtherCores)
{
    Fixture f;
    f.access(0, f.rowAddr(5, 0), Orientation::Row, false);
    f.access(1, f.rowAddr(5, 0), Orientation::Row, false);
    // Core 1 writes: core 0's copy must be invalidated.
    f.access(1, f.rowAddr(5, 0), Orientation::Row, true);
    EXPECT_GE(f.hierarchy.stats().get("cache.cohInvalidations"), 1.0);
    // Core 0 reads again: not an L1 hit (copy was invalidated), and
    // it must pay the remote-dirty penalty.
    const Tick again = f.access(0, f.rowAddr(5, 0), Orientation::Row,
                                false);
    EXPECT_GT(again, f.config.cyc(f.config.l1Latency));
}

TEST(HierarchyTest, SynonymCrossingBitsSetOnFill)
{
    Fixture f;
    // Load a column line, then a crossing row line: the fill must
    // detect the crossing.
    f.access(0, f.colAddr(437, 182), Orientation::Column, false);
    f.access(0, f.rowAddr(437, 176), Orientation::Row, false);
    EXPECT_GE(f.hierarchy.stats().get("cache.crossingsFound"), 1.0);
    EXPECT_GT(f.hierarchy.stats().get("cache.synonymProbes"), 0.0);
}

TEST(HierarchyTest, NoCrossingProbesWhenSingleOrientation)
{
    Fixture f;
    for (unsigned r = 0; r < 16; ++r)
        f.access(0, f.rowAddr(r, 0), Orientation::Row, false);
    // Only row lines cached: the orientation filter skips probes.
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.synonymProbes"),
                     0.0);
}

TEST(HierarchyTest, WriteToCrossedWordPropagates)
{
    Fixture f;
    f.access(0, f.colAddr(437, 182), Orientation::Column, false);
    f.access(0, f.rowAddr(437, 176), Orientation::Row, false);
    // Word 6 of the row line (col 176+6 = 182) crosses the cached
    // column line; writing it must update the partner.
    f.access(0, f.rowAddr(437, 182), Orientation::Row, true);
    EXPECT_GE(f.hierarchy.stats().get("cache.synonymUpdates"), 1.0);
    EXPECT_GT(f.hierarchy.stats().get("cache.synonymTicks"), 0.0);
}

TEST(HierarchyTest, WriteToUncrossedWordDoesNotPropagate)
{
    Fixture f;
    f.access(0, f.colAddr(437, 182), Orientation::Column, false);
    f.access(0, f.rowAddr(437, 176), Orientation::Row, false);
    // Word 0 (col 176) does not cross the cached column line 182.
    f.access(0, f.rowAddr(437, 176), Orientation::Row, true);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.synonymUpdates"),
                     0.0);
}

TEST(HierarchyTest, SynonymDisabledOnRowOnlyDevices)
{
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::Dram, eq);
    HierarchyConfig config;
    Hierarchy hierarchy(config, eq, memory);
    CacheAccess a;
    a.addr = 0x1000;
    EXPECT_TRUE(hierarchy.access(0, a, [](Tick) {}));
    eq.run();
    EXPECT_DOUBLE_EQ(hierarchy.stats().get("cache.synonymProbes"),
                     0.0);
}

TEST(HierarchyTest, PinRangeProtectsLinesInL3)
{
    Fixture f;
    const Addr base = f.colAddr(0, 7);
    f.access(0, base, Orientation::Column, false);
    EXPECT_EQ(f.hierarchy.pinRange(base, Orientation::Column, 64,
                                   true),
              1u);
    EXPECT_EQ(f.hierarchy.pinRange(base, Orientation::Column, 64,
                                   false),
              1u);
    // Pinning a range that is not cached changes nothing.
    EXPECT_EQ(f.hierarchy.pinRange(f.colAddr(512, 99),
                                   Orientation::Column, 128, true),
              0u);
}

TEST(HierarchyTest, GatherBypassSkipsCaches)
{
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::GsDram, eq);
    HierarchyConfig config;
    Hierarchy hierarchy(config, eq, memory);
    CacheAccess a;
    a.addr = 0x2000;
    a.bypass = true;
    Tick done{0};
    EXPECT_TRUE(hierarchy.access(0, a, [&](Tick t) { done = t; }));
    eq.run();
    EXPECT_GT(done, Tick{0});
    EXPECT_DOUBLE_EQ(hierarchy.stats().get("cache.bypasses"), 1.0);
    EXPECT_DOUBLE_EQ(hierarchy.stats().get("cache.llcMisses"), 1.0);
    // A second identical gather still goes to memory.
    EXPECT_TRUE(hierarchy.access(0, a, [&](Tick t) { done = t; }));
    eq.run();
    EXPECT_DOUBLE_EQ(hierarchy.stats().get("cache.llcMisses"), 2.0);
}

TEST(HierarchyTest, DirtyEvictionWritesBack)
{
    Fixture f;
    // Dirty many distinct L3 sets is hard at 8 MB; instead shrink
    // the hierarchy so eviction happens quickly.
    HierarchyConfig small;
    small.l1 = CacheConfig{"L1", 512, 64, 2};
    small.l2 = CacheConfig{"L2", 1024, 64, 2};
    small.l3 = CacheConfig{"L3", 2048, 64, 2};
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::RcNvm, eq);
    Hierarchy hierarchy(small, eq, memory);
    // Write lines mapping to one L3 set until it spills.
    for (unsigned i = 0; i < 8; ++i) {
        mem::DecodedAddr d;
        d.row = i;
        CacheAccess a;
        a.addr = memory.map().encode(d, Orientation::Row);
        a.isWrite = true;
        EXPECT_TRUE(hierarchy.access(0, a, [](Tick) {}));
        eq.run();
    }
    EXPECT_GT(hierarchy.stats().get("cache.writebacks"), 0.0);
    EXPECT_GT(memory.stats().get("mem.writes"), 0.0);
}

TEST(DirectoryTest, ReadersJoinTheSharerMask)
{
    Fixture f;
    const LineKey key{f.rowAddr(5, 0), Orientation::Row};
    EXPECT_EQ(f.hierarchy.sharers(key), 0u);
    f.access(0, key.addr, Orientation::Row, false); // miss fill
    f.access(2, key.addr, Orientation::Row, false); // L3 hit
    f.access(3, key.addr, Orientation::Row, false);
    EXPECT_EQ(f.hierarchy.sharers(key), 0b1101u);
}

TEST(DirectoryTest, WriteLeavesOnlyTheWritersBit)
{
    Fixture f;
    const LineKey a{f.rowAddr(5, 0), Orientation::Row};
    const LineKey b{f.rowAddr(6, 0), Orientation::Row};
    for (unsigned core : {0u, 1u, 2u}) {
        f.access(core, a.addr, Orientation::Row, false);
        f.access(core, b.addr, Orientation::Row, false);
    }
    // Upgrade of a Shared L1 copy.
    f.access(1, a.addr, Orientation::Row, true);
    EXPECT_EQ(f.hierarchy.sharers(a), 0b010u);
    // Write that hits only in L3: the writer joins, the rest leave.
    f.access(3, b.addr, Orientation::Row, true);
    EXPECT_EQ(f.hierarchy.sharers(b), 0b1000u);
    // A write miss fill starts from an empty mask.
    const LineKey c{f.rowAddr(7, 0), Orientation::Row};
    f.access(2, c.addr, Orientation::Row, true);
    EXPECT_EQ(f.hierarchy.sharers(c), 0b100u);
}

TEST(DirectoryTest, L3VictimInvalidatesItsSharers)
{
    // A 2-way, 16-set L3 with 8-way private caches: lines evicted from
    // L3 are still held privately and must be back-invalidated.
    HierarchyConfig small;
    small.l3 = CacheConfig{"L3", 2048, 64, 2};
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::RcNvm, eq);
    Hierarchy hierarchy(small, eq, memory);
    auto read = [&](unsigned core, Addr addr) {
        CacheAccess a;
        a.addr = addr;
        EXPECT_TRUE(hierarchy.access(core, a, [](Tick) {}));
        eq.run();
    };
    mem::DecodedAddr d;
    const Addr first = memory.map().encode(d, Orientation::Row);
    read(0, first);
    read(1, first);
    for (unsigned r = 1; r <= 2; ++r) {
        d.row = r;
        read(2, memory.map().encode(d, Orientation::Row));
    }
    const LineKey key{first, Orientation::Row};
    EXPECT_EQ(hierarchy.sharers(key), 0u); // evicted from L3
    // Core 0's private copy went with it: the re-read misses L1 and L2.
    const auto l1_hits = hierarchy.stats().get("cache.l1Hits");
    const auto l2_hits = hierarchy.stats().get("cache.l2Hits");
    read(0, first);
    EXPECT_DOUBLE_EQ(hierarchy.stats().get("cache.l1Hits"), l1_hits);
    EXPECT_DOUBLE_EQ(hierarchy.stats().get("cache.l2Hits"), l2_hits);
    EXPECT_EQ(hierarchy.sharers(key), 0b1u);
}

TEST(DirectoryDeathTest, MoreCoresThanMaskBitsIsFatal)
{
    HierarchyConfig wide;
    wide.cores = Cache::maxSharers + 1;
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::RcNvm, eq);
    EXPECT_EXIT(Hierarchy(wide, eq, memory),
                ::testing::ExitedWithCode(1), "sharer mask");
}

TEST(HierarchyDeathTest, MemoryBeyondTagWordIsFatal)
{
    // A tag word holds 2^30 line numbers: a 64 GB memory fits, and a
    // 128 GB one (a single 2^17 x 2^17 subarray, so the memory side
    // allocates nothing large) is refused before any cache is built.
    mem::Geometry g;
    g.channels = g.ranksPerChannel = g.banksPerRank =
        g.subarraysPerBank = 1;
    g.rowsPerSubarray = g.colsPerSubarray = 1u << 17;
    ASSERT_EQ(g.capacityBytes() / 64, 2 * Cache::maxLines);
    const mem::TimingParams timing = mem::timingFor(mem::DeviceKind::RcNvm);
    sim::EventQueue eq;
    mem::MemorySystem too_large(mem::DeviceKind::RcNvm, eq, timing, false,
                                32, g, mem::SchedPolicyKind::FrFcfs);
    EXPECT_EXIT(Hierarchy(HierarchyConfig{}, eq, too_large),
                ::testing::ExitedWithCode(1), "tag word");

    g.rowsPerSubarray = 1u << 16;
    mem::MemorySystem fits(mem::DeviceKind::RcNvm, eq, timing, false, 32,
                           g, mem::SchedPolicyKind::FrFcfs);
    Hierarchy hierarchy(HierarchyConfig{}, eq, fits);
    EXPECT_EQ(hierarchy.sharers(LineKey{}), 0u);
}

TEST(HierarchyTest, AddressesBeyondTheMemoryFoldOntoIt)
{
    // The 4 GB memory decodes an address's low 32 bits, so a
    // user-space address as a drcachesim listing records it, its
    // folded twin and the address 64 GB above it (where a line number
    // outgrows the tag word's 30 bits) all name one line.
    Fixture f;
    ASSERT_EQ(f.memory.map().geometry().capacityBytes(), Addr{1} << 32);
    const Addr device = f.rowAddr(437, 176);
    const Addr user = Addr{0x7ffd} << 32 | device;
    f.access(0, user, Orientation::Row, false);
    f.access(1, device, Orientation::Row, false);
    f.access(2, user + (Addr{64} << 30), Orientation::Row, false);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.llcMisses"), 1.0);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.l3Hits"), 2.0);
    EXPECT_EQ(f.hierarchy.sharers(LineKey{device, Orientation::Row}),
              0b111u);
    // The synonym partners the address map yields are device lines:
    // a user-space column line crossing row 437 finds this one.
    f.access(3, Addr{0x5555} << 32 | f.colAddr(437, 182),
             Orientation::Column, false);
    EXPECT_DOUBLE_EQ(f.hierarchy.stats().get("cache.crossingsFound"),
                     1.0);
    // Pinning through an alias no access used finds the line too.
    EXPECT_EQ(f.hierarchy.pinRange(Addr{0x1234} << 32 | device,
                                   Orientation::Row, 64, true),
              1u);
}

TEST(HierarchyTest, DirtyL2EvictionClearsItsSharerBit)
{
    // 2-way, 8-set L2 (and 4-set L1) over the Table-1 L3: rows 0-3 at
    // column 0 share one private set but not an L3 set.
    HierarchyConfig small;
    small.l1 = CacheConfig{"L1", 512, 64, 2};
    small.l2 = CacheConfig{"L2", 1024, 64, 2};
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::RcNvm, eq);
    Hierarchy hierarchy(small, eq, memory);
    auto touch = [&](unsigned core, unsigned row, bool write) {
        mem::DecodedAddr d;
        d.row = row;
        CacheAccess a;
        a.addr = memory.map().encode(d, Orientation::Row);
        a.isWrite = write;
        EXPECT_TRUE(hierarchy.access(core, a, [](Tick) {}));
        eq.run();
        return LineKey{a.addr, Orientation::Row};
    };
    const LineKey dirty = touch(0, 0, true);
    const LineKey clean = touch(1, 1, false);
    touch(0, 1, false);
    EXPECT_EQ(hierarchy.sharers(dirty), 0b01u);
    EXPECT_EQ(hierarchy.sharers(clean), 0b11u);
    // Core 0's L2 evicts its dirty row-0 line: the data folds into L3
    // and core 0 leaves the line's mask.
    touch(0, 2, false);
    EXPECT_EQ(hierarchy.sharers(dirty), 0u);
    // A clean victim leaves without telling L3; its bit stays stale.
    touch(0, 3, false);
    EXPECT_EQ(hierarchy.sharers(clean), 0b11u);
}

TEST(HierarchyTest, StatsResetClearsEverything)
{
    Fixture f;
    f.access(0, f.rowAddr(1, 0), Orientation::Row, true);
    f.hierarchy.reset();
    const auto stats = f.hierarchy.stats();
    EXPECT_DOUBLE_EQ(stats.get("cache.accesses"), 0.0);
    EXPECT_DOUBLE_EQ(stats.get("cache.llcMisses"), 0.0);
    // And the data is gone: the next access misses again.
    const Tick miss = f.access(0, f.rowAddr(1, 0), Orientation::Row,
                               false);
    EXPECT_GT(miss, f.config.cyc(f.config.l1Latency));
}

} // namespace
} // namespace rcnvm::cache
