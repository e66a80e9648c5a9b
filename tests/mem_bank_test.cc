/**
 * @file
 * Tests for the bank state machine: buffer hit/miss/conflict and
 * orientation-switch classification, Table-1 timing arithmetic,
 * tRAS enforcement, dirty-buffer flush, and CAS pipelining.
 */

#include <gtest/gtest.h>

#include "mem/bank.hh"

namespace rcnvm::mem {
namespace {

TimingParams
rc()
{
    return TimingParams::rcNvm();
}

TEST(Bank, StartsClosed)
{
    Bank bank;
    EXPECT_EQ(bank.bufState(), Bank::BufState::Closed);
    EXPECT_EQ(bank.nextReady(), Tick{0});
    EXPECT_FALSE(bank.bufferDirty());
}

TEST(Bank, FirstAccessIsBufferMiss)
{
    Bank bank;
    const auto s = bank.access(Tick{0}, Orientation::Row, 0, 5, false, rc());
    EXPECT_EQ(s.outcome, AccessOutcome::BufferMiss);
    // Activate then read: tRCD + tCAS, then the burst.
    const TimingParams t = rc();
    EXPECT_EQ(s.dataStart, t.cyc(t.tRCD + t.tCAS));
    EXPECT_EQ(s.finish, t.cyc(t.tRCD + t.tCAS + t.tBURST));
    EXPECT_EQ(bank.bufState(), Bank::BufState::RowOpen);
    EXPECT_EQ(bank.openIndex(), 5u);
}

TEST(Bank, SecondAccessSameRowHits)
{
    Bank bank;
    const TimingParams t = rc();
    bank.access(Tick{0}, Orientation::Row, 0, 5, false, t);
    const auto s = bank.access(bank.nextReady(), Orientation::Row, 0,
                               5, false, t);
    EXPECT_EQ(s.outcome, AccessOutcome::BufferHit);
    EXPECT_EQ(s.dataStart - s.start, t.cyc(t.tCAS));
}

TEST(Bank, DifferentRowSameOrientationConflicts)
{
    Bank bank;
    const TimingParams t = rc();
    bank.access(Tick{0}, Orientation::Row, 0, 5, false, t);
    const auto s = bank.access(bank.nextReady(), Orientation::Row, 0,
                               9, false, t);
    EXPECT_EQ(s.outcome, AccessOutcome::BufferConflict);
    // Precharge + activate + CAS (clean buffer: no write pulse).
    EXPECT_EQ(s.dataStart - s.start, t.cyc(t.tRP + t.tRCD + t.tCAS));
    EXPECT_EQ(bank.openIndex(), 9u);
}

TEST(Bank, DifferentSubarraySameIndexConflicts)
{
    Bank bank;
    const TimingParams t = rc();
    bank.access(Tick{0}, Orientation::Row, 0, 5, false, t);
    const auto s = bank.access(bank.nextReady(), Orientation::Row, 3,
                               5, false, t);
    EXPECT_EQ(s.outcome, AccessOutcome::BufferConflict);
    EXPECT_EQ(bank.openSubarray(), 3u);
}

TEST(Bank, OrientationSwitchClosesAndReopens)
{
    // Sec. 3: "the row and column buffer cannot be active at the
    // same time... RC-NVM will close the active buffer and flush
    // the data back, before it activates the new buffer."
    Bank bank;
    const TimingParams t = rc();
    bank.access(Tick{0}, Orientation::Row, 0, 5, false, t);
    const auto s = bank.access(bank.nextReady(), Orientation::Column,
                               0, 5, false, t);
    EXPECT_EQ(s.outcome, AccessOutcome::OrientationSwitch);
    EXPECT_EQ(bank.bufState(), Bank::BufState::ColOpen);
}

TEST(Bank, DirtyBufferFlushAddsWritePulse)
{
    Bank bank;
    const TimingParams t = rc();
    bank.access(Tick{0}, Orientation::Row, 0, 5, true, t); // write: dirty
    EXPECT_TRUE(bank.bufferDirty());
    const Tick start = bank.nextReady();
    const auto s =
        bank.access(start, Orientation::Row, 0, 9, false, t);
    EXPECT_EQ(s.outcome, AccessOutcome::BufferConflict);
    EXPECT_EQ(s.dataStart - s.start,
              t.cyc(t.tWR + t.tRP + t.tRCD + t.tCAS));
    EXPECT_FALSE(bank.bufferDirty());
}

TEST(Bank, CleanConflictSkipsWritePulse)
{
    Bank bank;
    const TimingParams t = rc();
    bank.access(Tick{0}, Orientation::Row, 0, 5, false, t);
    const auto s = bank.access(bank.nextReady(), Orientation::Row, 0,
                               9, false, t);
    EXPECT_EQ(s.dataStart - s.start, t.cyc(t.tRP + t.tRCD + t.tCAS));
}

TEST(Bank, TRasDelaysEarlyPrecharge)
{
    Bank bank;
    TimingParams t = TimingParams::ddr3_1333();
    bank.access(Tick{0}, Orientation::Row, 0, 5, false, t);
    // Request a conflicting row immediately: precharge must wait
    // until tRAS after the activate.
    const Tick activate = t.cyc(t.tRCD);
    const auto s = bank.access(bank.nextReady(), Orientation::Row, 0,
                               9, false, t);
    EXPECT_GE(s.dataStart,
              activate + t.cyc(t.tRAS + t.tRP + t.tRCD + t.tCAS));
}

TEST(Bank, HitsPipelineAtCcd)
{
    Bank bank;
    const TimingParams t = rc();
    bank.access(Tick{0}, Orientation::Row, 0, 5, false, t);
    const Tick r1 = bank.nextReady();
    const auto s1 =
        bank.access(r1, Orientation::Row, 0, 5, false, t);
    EXPECT_EQ(bank.nextReady() - s1.start, t.cyc(t.tCCD));
}

TEST(Bank, BusContentionDelaysBurstOnly)
{
    Bank bank;
    const TimingParams t = rc();
    const Tick bus_free{1000000}; // bus busy for a long time
    const auto s = bank.access(Tick{0}, Orientation::Row, 0, 5, false, t,
                               bus_free);
    EXPECT_EQ(s.dataStart, bus_free);
    EXPECT_EQ(s.finish, bus_free + t.cyc(t.tBURST));
}

TEST(Bank, HitsQueryMatchesState)
{
    Bank bank;
    const TimingParams t = rc();
    EXPECT_FALSE(bank.hits(Orientation::Row, 0, 5));
    bank.access(Tick{0}, Orientation::Row, 0, 5, false, t);
    EXPECT_TRUE(bank.hits(Orientation::Row, 0, 5));
    EXPECT_FALSE(bank.hits(Orientation::Row, 0, 6));
    EXPECT_FALSE(bank.hits(Orientation::Column, 0, 5));
    EXPECT_FALSE(bank.hits(Orientation::Row, 1, 5));
}

TEST(Bank, ColumnBufferHitAfterSwitch)
{
    Bank bank;
    const TimingParams t = rc();
    bank.access(Tick{0}, Orientation::Column, 2, 7, false, t);
    EXPECT_EQ(bank.bufState(), Bank::BufState::ColOpen);
    const auto s = bank.access(bank.nextReady(), Orientation::Column,
                               2, 7, false, t);
    EXPECT_EQ(s.outcome, AccessOutcome::BufferHit);
}

TEST(Bank, LateRequestStartsAtNow)
{
    Bank bank;
    const TimingParams t = rc();
    const auto s =
        bank.access(Tick{77777}, Orientation::Row, 0, 0, false, t);
    EXPECT_EQ(s.start, Tick{77777});
}

TEST(Bank, BusyBankDefersStart)
{
    Bank bank;
    const TimingParams t = rc();
    bank.access(Tick{0}, Orientation::Row, 0, 0, false, t);
    const auto s = bank.access(Tick{1}, Orientation::Row, 0, 0, false, t);
    EXPECT_EQ(s.start, t.cyc(t.tRCD + t.tCCD));
}

TEST(TimingParamsTest, Table1Presets)
{
    const TimingParams dram = TimingParams::ddr3_1333();
    EXPECT_EQ(dram.tCAS, MemCycles{10});
    EXPECT_EQ(dram.tRCD, MemCycles{9});
    EXPECT_EQ(dram.tRP, MemCycles{9});
    EXPECT_EQ(dram.tRAS, MemCycles{24});
    // Paper: DRAM access time 14 ns = (tRCD + tCAS) cycles.
    EXPECT_NEAR(static_cast<double>(
                    dram.cyc(dram.tRCD + dram.tCAS).value()) /
                    static_cast<double>(ticksPerNs.value()),
                14.0, 0.5);

    const TimingParams rram = TimingParams::rram();
    EXPECT_EQ(rram.tRP, MemCycles{1});
    EXPECT_EQ(rram.tRAS, MemCycles{0});
    // 25 ns read access, 10 ns write pulse.
    EXPECT_EQ(rram.cyc(rram.tRCD), nsToTicks(25.0));
    EXPECT_EQ(rram.cyc(rram.tWR), nsToTicks(10.0));

    const TimingParams rcnvm = TimingParams::rcNvm();
    EXPECT_EQ(rcnvm.tRCD, MemCycles{12}); // 30 ns ~ paper's 29 ns
    EXPECT_EQ(rcnvm.cyc(rcnvm.tWR), nsToTicks(15.0));
}

TEST(TimingParamsTest, CellLatencyOverride)
{
    // Figure-22 sensitivity scaling.
    const TimingParams t =
        TimingParams::rram().withCellLatency(50.0, 20.0);
    EXPECT_EQ(t.cyc(t.tRCD), nsToTicks(50.0));
    EXPECT_EQ(t.cyc(t.tWR), nsToTicks(20.0));
    const TimingParams tiny =
        TimingParams::rram().withCellLatency(0.1, 0.1);
    EXPECT_GE(tiny.tRCD, MemCycles{1});
    EXPECT_GE(tiny.tWR, MemCycles{1});
}

TEST(TimingParamsTest, DeviceKindHelpers)
{
    EXPECT_TRUE(capsFor(DeviceKind::RcNvm).columnAccess);
    EXPECT_FALSE(capsFor(DeviceKind::RcNvm).gather);
    EXPECT_TRUE(capsFor(DeviceKind::GsDram).gather);
    EXPECT_FALSE(capsFor(DeviceKind::Dram).columnAccess);
    EXPECT_FALSE(capsFor(DeviceKind::Rram).columnAccess);
    EXPECT_STREQ(toString(DeviceKind::RcNvm), "RC-NVM");
    EXPECT_STREQ(toString(DeviceKind::GsDram), "GS-DRAM");
}

} // namespace
} // namespace rcnvm::mem
