/**
 * @file
 * Tests for the OLTP request generator and the machine's service
 * primitive it feeds (starting streams on named cores). The
 * scheduler itself is tested in serve_test.cc.
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"
#include "olxp/generators.hh"
#include "workload/tables.hh"

namespace rcnvm::olxp {
namespace {

constexpr std::uint64_t kTuples = 4096;
constexpr std::uint64_t kSeed = 99;

/** One placed database shared by every test (placement is pure).
 *  The AddressMap is static too: the placed Database keeps a
 *  pointer to its map for address encoding at plan-build time. */
const workload::PlacedDatabase &
placedDb()
{
    static const workload::TableSet tables =
        workload::TableSet::standard(kTuples, 256, kSeed);
    static const workload::QueryWorkload workload(tables);
    static const mem::AddressMap map(
        mem::geometryFor(mem::DeviceKind::RcNvm));
    static const workload::PlacedDatabase pd =
        workload.place(mem::DeviceKind::RcNvm, map);
    return pd;
}

TEST(GeneratorTest, OltpGapsAreExponentialAndPositive)
{
    OltpGenerator gen(placedDb(), Tick{1000}, 0.5, kSeed);
    double sum = 0;
    for (unsigned i = 0; i < 4096; ++i) {
        const Tick gap = gen.nextGap();
        EXPECT_GE(gap, Tick{1});
        sum += static_cast<double>(gap.value());
    }
    // The empirical mean of 4k draws sits near the configured mean.
    EXPECT_NEAR(sum / 4096.0, 1000.0, 100.0);
}

TEST(GeneratorTest, OltpRequestsTargetExistingTuples)
{
    OltpGenerator gen(placedDb(), Tick{1000}, 0.5, kSeed);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_FALSE(cpu::drain(gen.make()).empty());
}

TEST(GeneratorTest, SameSeedSameRequestSequence)
{
    OltpGenerator a(placedDb(), Tick{1000}, 0.5, kSeed);
    OltpGenerator b(placedDb(), Tick{1000}, 0.5, kSeed);
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(a.nextGap(), b.nextGap());
        ASSERT_EQ(cpu::drain(a.make()).size(),
                  cpu::drain(b.make()).size());
    }
}

TEST(SchedulerDeathTest, StartOnBusyCoreIsFatal)
{
    cpu::MachineConfig config;
    config.device = mem::DeviceKind::RcNvm;
    cpu::Machine machine(config);
    OltpGenerator gen(placedDb(), Tick{1000}, 0.0, kSeed);
    cpu::StreamOpSource a(gen.make());
    cpu::StreamOpSource b(gen.make());
    machine.startOnCore(0, a, false, [](Tick) {});
    EXPECT_EXIT(machine.startOnCore(0, b, false, [](Tick) {}),
                ::testing::ExitedWithCode(1), "busy");
}

} // namespace
} // namespace rcnvm::olxp
