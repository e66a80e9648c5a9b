/**
 * @file
 * Tests for the two evaluation extensions: per-command energy
 * accounting and SALP-style per-subarray buffers.
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"

namespace rcnvm::mem {
namespace {

MemPacket
req(const AddressMap &map, unsigned subarray, unsigned row,
    unsigned col, Orientation o = Orientation::Row,
    bool write = false)
{
    DecodedAddr d;
    d.subarray = subarray;
    d.row = row;
    d.col = col;
    MemPacket r;
    r.addr = map.encode(d, o);
    r.orient = o;
    r.isWrite = write;
    return r;
}

TEST(EnergyTest, ReadAccountsActivationAndBurst)
{
    sim::EventQueue eq;
    MemorySystem mem(DeviceKind::RcNvm, eq);
    const TimingParams t = timingFor(DeviceKind::RcNvm);
    mem.issue(req(mem.map(), 0, 5, 0));
    eq.run();
    EXPECT_DOUBLE_EQ(mem.stats().get("mem.energyPJ"),
                     t.eActivate + t.eReadBurst);
}

TEST(EnergyTest, BufferHitSkipsActivationEnergy)
{
    sim::EventQueue eq;
    MemorySystem mem(DeviceKind::RcNvm, eq);
    const TimingParams t = timingFor(DeviceKind::RcNvm);
    mem.issue(req(mem.map(), 0, 5, 0));
    eq.run();
    mem.issue(req(mem.map(), 0, 5, 8));
    eq.run();
    EXPECT_DOUBLE_EQ(mem.stats().get("mem.energyPJ"),
                     t.eActivate + 2 * t.eReadBurst);
}

TEST(EnergyTest, DirtyFlushPaysWritePulse)
{
    sim::EventQueue eq;
    MemorySystem mem(DeviceKind::RcNvm, eq);
    const TimingParams t = timingFor(DeviceKind::RcNvm);
    mem.issue(req(mem.map(), 0, 5, 0, Orientation::Row, true));
    eq.run();
    // Conflict evicts the dirty buffer -> write pulse energy.
    mem.issue(req(mem.map(), 0, 9, 0));
    eq.run();
    EXPECT_DOUBLE_EQ(mem.stats().get("mem.energyPJ"),
                     2 * t.eActivate + t.eWriteBurst +
                         t.eReadBurst + t.eWritePulse);
}

TEST(EnergyTest, GatheredLineCostsTwoBursts)
{
    sim::EventQueue eq;
    MemorySystem mem(DeviceKind::GsDram, eq);
    const TimingParams t = timingFor(DeviceKind::GsDram);
    MemPacket r = req(mem.map(), 0, 5, 0);
    r.gathered = true;
    mem.issue(std::move(r));
    eq.run();
    EXPECT_DOUBLE_EQ(mem.stats().get("mem.energyPJ"),
                     t.eActivate + 2 * t.eReadBurst);
}

TEST(EnergyTest, PresetsFavourNvmReadsDramWrites)
{
    const TimingParams dram = timingFor(DeviceKind::Dram);
    const TimingParams rram = timingFor(DeviceKind::Rram);
    const TimingParams rc = timingFor(DeviceKind::RcNvm);
    // Crossbar reads avoid the destructive-read restore; writes pay
    // the cell pulse. RC-NVM carries a mux premium over RRAM.
    EXPECT_LT(rram.eActivate, dram.eActivate);
    EXPECT_GT(rram.eWritePulse, dram.eWritePulse);
    EXPECT_GT(rc.eActivate, rram.eActivate);
    EXPECT_GT(rc.eWritePulse, rram.eWritePulse);
}

TEST(SalpTest, PerSubarrayBuffersRemoveCrossSubarrayConflicts)
{
    const AddressMap map(Geometry::rcNvm());
    const TimingParams t = timingFor(DeviceKind::RcNvm);

    Bank plain(0);
    Bank salp(map.geometry().subarraysPerBank);

    // Alternate between two subarrays of the same bank.
    unsigned plain_conflicts = 0, salp_conflicts = 0;
    for (int i = 0; i < 10; ++i) {
        const unsigned sub = i % 2;
        if (plain.access(plain.nextReady(), Orientation::Row, sub, 7,
                         false, t)
                .outcome == AccessOutcome::BufferConflict) {
            ++plain_conflicts;
        }
        if (salp.access(salp.nextReady(), Orientation::Row, sub, 7,
                        false, t)
                .outcome == AccessOutcome::BufferConflict) {
            ++salp_conflicts;
        }
    }
    EXPECT_EQ(plain_conflicts, 9u); // every access after the first
    EXPECT_EQ(salp_conflicts, 0u);
}

TEST(SalpTest, SameSubarrayStillConflicts)
{
    const TimingParams t = timingFor(DeviceKind::RcNvm);
    Bank salp(8);
    salp.access(Tick{0}, Orientation::Row, 3, 5, false, t);
    const auto s = salp.access(salp.nextReady(), Orientation::Row, 3,
                               9, false, t);
    EXPECT_EQ(s.outcome, AccessOutcome::BufferConflict);
}

TEST(SalpTest, OrientationSwitchStillEnforcedPerSubarray)
{
    // The paper's row/column exclusivity holds within a subarray
    // even under SALP.
    const TimingParams t = timingFor(DeviceKind::RcNvm);
    Bank salp(8);
    salp.access(Tick{0}, Orientation::Row, 3, 5, false, t);
    const auto s = salp.access(salp.nextReady(), Orientation::Column,
                               3, 5, false, t);
    EXPECT_EQ(s.outcome, AccessOutcome::OrientationSwitch);
}

TEST(SalpTest, MachineLevelSalpReducesConflicts)
{
    const AddressMap map(Geometry::rcNvm());
    // Alternate loads between two subarrays of bank 0.
    cpu::AccessPlan plan;
    for (int i = 0; i < 64; ++i) {
        DecodedAddr d;
        d.subarray = static_cast<unsigned>(i % 2);
        d.row = 11;
        d.col = static_cast<unsigned>(8 * i);
        plan.push_back(cpu::MemOp::load(
            map.encode(d, Orientation::Row)));
    }
    cpu::MachineConfig base;
    base.device = DeviceKind::RcNvm;
    cpu::MachineConfig with = base;
    with.salp = true;
    cpu::Machine a(base), b(with);
    const auto ra = a.run(plan);
    const auto rb = b.run(plan);
    EXPECT_GT(ra.stats.get("mem.bufferConflicts"),
              rb.stats.get("mem.bufferConflicts"));
    EXPECT_LE(rb.ticks, ra.ticks);
}

} // namespace
} // namespace rcnvm::mem
