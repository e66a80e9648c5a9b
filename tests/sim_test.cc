/**
 * @file
 * Unit tests for the simulation kernel: event ordering, time
 * advancement, and clock-domain conversions.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"

namespace rcnvm::sim {
namespace {

TEST(EventQueue, RunsEventsInTickOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(Tick{30}, [&] { order.push_back(3); });
    eq.schedule(Tick{10}, [&] { order.push_back(1); });
    eq.schedule(Tick{20}, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), Tick{30});
}

TEST(EventQueue, TieBreaksByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(Tick{5}, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(Tick{1}, [&] {
        ++fired;
        eq.schedule(Tick{2}, [&] {
            ++fired;
            eq.schedule(Tick{3}, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), Tick{3});
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen;
    eq.schedule(Tick{100}, [&] {
        eq.scheduleAfter(Tick{50}, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, Tick{150});
}

TEST(EventQueue, RunUntilLeavesLaterEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(Tick{10}, [&] { ++fired; });
    eq.schedule(Tick{20}, [&] { ++fired; });
    eq.runUntil(Tick{15});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), Tick{15});
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(Tick{static_cast<std::uint64_t>(i)}, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, OccupiedSlotsTrackPendingAndDrainToZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.occupiedSlots(), 0u);
    std::vector<std::size_t> seen; // occupied minus pending, per event
    for (int i = 0; i < 4; ++i) {
        eq.schedule(Tick{static_cast<std::uint64_t>(10 * i)}, [&] {
            seen.push_back(eq.occupiedSlots() - eq.pending());
            // Reuse a freed slot and grow the slab in one callback.
            eq.scheduleAfter(Tick{5}, [&] {
                seen.push_back(eq.occupiedSlots() - eq.pending());
            });
            eq.scheduleAfter(Tick{7}, [] {});
        });
    }
    EXPECT_EQ(eq.occupiedSlots(), 4u);
    EXPECT_EQ(eq.occupiedSlots(), eq.pending());
    eq.runUntil(Tick{12});
    EXPECT_EQ(eq.occupiedSlots(), eq.pending());
    EXPECT_GT(eq.pending(), 0u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.occupiedSlots(), 0u);
    EXPECT_EQ(seen, std::vector<std::size_t>(8, 0));
}

TEST(EventQueue, EmptyRunIsNoop)
{
    EventQueue eq;
    eq.run();
    EXPECT_EQ(eq.now(), Tick{0});
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueueDeathTest, PanicsOnPastEvent)
{
    EventQueue eq;
    eq.schedule(Tick{10}, [&] {
        eq.schedule(Tick{5}, [] {}); // in the past
    });
    EXPECT_DEATH(eq.run(), "scheduled in the past");
}

TEST(ClockDomain, CycleTickConversions)
{
    ClockDomain<MemClk> clk(Tick{2500});
    EXPECT_EQ(clk.period(), Tick{2500});
    EXPECT_EQ(clk.cyclesToTicks(MemCycles{4}), Tick{10000});
    EXPECT_EQ(clk.ticksToCycles(Tick{10000}), MemCycles{4});
    EXPECT_EQ(clk.ticksToCycles(Tick{10001}), MemCycles{5}); // rounds up
}

TEST(ClockDomain, NextEdge)
{
    ClockDomain<MemClk> clk(Tick{750});
    EXPECT_EQ(clk.nextEdgeAt(Tick{0}), Tick{0});
    EXPECT_EQ(clk.nextEdgeAt(Tick{1}), Tick{750});
    EXPECT_EQ(clk.nextEdgeAt(Tick{750}), Tick{750});
    EXPECT_EQ(clk.nextEdgeAt(Tick{751}), Tick{1500});
}

TEST(ClockDomain, CpuClockIs2GHz)
{
    EXPECT_EQ(cpuClock().period(), Tick{500});
}

} // namespace
} // namespace rcnvm::sim
