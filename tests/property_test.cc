/**
 * @file
 * Cross-cutting property tests, parameterised over devices,
 * layouts, and timing presets:
 *
 *  - placement coverage: every (tuple, word) is addressable, all
 *    addresses are unique, and field scans cover every tuple, for
 *    every device x layout combination;
 *  - bank timing monotonicity and outcome soundness over random
 *    request sequences on every preset;
 *  - end-to-end replay determinism for every device;
 *  - dual-address involution over the whole placement.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "cpu/machine.hh"
#include "imdb/database.hh"
#include "imdb/plan_builder.hh"
#include "mem/memory_system.hh"
#include "util/random.hh"

namespace rcnvm {
namespace {

using imdb::ChunkLayout;
using imdb::Database;
using imdb::LineRef;
using imdb::Schema;
using imdb::Table;

// ----------------------------------------------------------------
// Placement properties over device x layout x tuple-width.
// ----------------------------------------------------------------

using PlacementParam =
    std::tuple<mem::DeviceKind, ChunkLayout, unsigned /*fields*/>;

class PlacementProperty
    : public ::testing::TestWithParam<PlacementParam>
{
  protected:
    void
    SetUp() override
    {
        const auto [kind, layout, fields] = GetParam();
        kind_ = kind;
        layout_ = layout;
        table_ = std::make_unique<Table>(
            "t", Schema::uniform(fields), 2500, 77);
        map_ = std::make_unique<mem::AddressMap>(
            mem::geometryFor(kind));
        db_ = std::make_unique<Database>(kind, *map_);
        tid_ = db_->addTable(table_.get(), layout);
    }

    mem::DeviceKind kind_;
    ChunkLayout layout_;
    std::unique_ptr<Table> table_;
    std::unique_ptr<mem::AddressMap> map_;
    std::unique_ptr<Database> db_;
    Database::TableId tid_ = 0;
};

TEST_P(PlacementProperty, AddressesAreUniqueAndAligned)
{
    std::set<Addr> seen;
    const unsigned tw = table_->schema().tupleWords();
    for (std::uint64_t t = 0; t < table_->tuples(); t += 3) {
        for (unsigned w = 0; w < tw; ++w) {
            const Addr a =
                db_->wordAddr(tid_, t, w, Orientation::Row);
            EXPECT_EQ(a % 8, 0u);
            EXPECT_TRUE(seen.insert(a).second);
        }
    }
}

TEST_P(PlacementProperty, DualAddressInvolution)
{
    if (!db_->columnCapable())
        GTEST_SKIP() << "row-only device";
    const unsigned tw = table_->schema().tupleWords();
    for (std::uint64_t t = 0; t < table_->tuples(); t += 61) {
        for (unsigned w = 0; w < tw; w += 3) {
            const Addr row =
                db_->wordAddr(tid_, t, w, Orientation::Row);
            const Addr col =
                db_->wordAddr(tid_, t, w, Orientation::Column);
            EXPECT_EQ(map_->convert(row, Orientation::Row,
                                    Orientation::Column),
                      col);
            EXPECT_EQ(map_->convert(col, Orientation::Column,
                                    Orientation::Row),
                      row);
        }
    }
}

TEST_P(PlacementProperty, FieldScanCoversAllTuples)
{
    const unsigned tw = table_->schema().tupleWords();
    const unsigned w = tw / 2;
    std::vector<LineRef> lines;
    db_->fieldScanLines(tid_, w, 0, table_->tuples(), lines);
    std::set<std::pair<Addr, Orientation>> have;
    for (const LineRef &l : lines)
        have.insert({l.addr, l.orient});
    for (std::uint64_t t = 0; t < table_->tuples(); ++t) {
        bool covered =
            have.count({db_->wordAddr(tid_, t, w, Orientation::Row) &
                            ~63ull,
                        Orientation::Row}) > 0;
        if (!covered && db_->columnCapable()) {
            covered = have.count(
                          {db_->wordAddr(tid_, t, w,
                                         Orientation::Column) &
                               ~63ull,
                           Orientation::Column}) > 0;
        }
        EXPECT_TRUE(covered) << "tuple " << t;
        if (!covered)
            break; // avoid thousands of failures
    }
}

TEST_P(PlacementProperty, TupleLinesContainEveryWord)
{
    const unsigned tw = table_->schema().tupleWords();
    for (std::uint64_t t = 0; t < table_->tuples(); t += 499) {
        std::vector<LineRef> lines;
        db_->tupleLines(tid_, t, 0, tw, lines);
        for (unsigned w = 0; w < tw; ++w) {
            bool found = false;
            for (const LineRef &l : lines) {
                const Addr a =
                    db_->wordAddr(tid_, t, w, l.orient) & ~63ull;
                found |= a == l.addr;
            }
            EXPECT_TRUE(found) << "tuple " << t << " word " << w;
        }
    }
}

TEST_P(PlacementProperty, PhysicalScanTouchesEveryWordOnce)
{
    std::vector<LineRef> lines;
    db_->physicalScan(tid_, 0, ~std::uint64_t{0}).drainInto(lines);
    std::set<Addr> unique;
    for (const LineRef &l : lines)
        EXPECT_TRUE(unique.insert(l.addr).second);
    // Lines cover at least the table's words; unaligned chunk
    // edges may over-fetch up to 7 words per physical row touched.
    const std::uint64_t words =
        table_->tuples() * table_->schema().tupleWords();
    EXPECT_GE(lines.size() * 8, words);
    EXPECT_LE(lines.size() * 8,
              words + words / 16 + 1024); // <= ~6% edge slack
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlacementProperty,
    ::testing::Combine(
        ::testing::Values(mem::DeviceKind::RcNvm,
                          mem::DeviceKind::Rram,
                          mem::DeviceKind::Dram,
                          mem::DeviceKind::GsDram),
        ::testing::Values(ChunkLayout::RowOriented,
                          ChunkLayout::ColumnOriented),
        ::testing::Values(8u, 16u, 20u)),
    [](const ::testing::TestParamInfo<PlacementParam> &info) {
        // Note: no structured bindings here - their brackets do not
        // shield commas from the macro's argument splitting.
        std::string name = toString(std::get<0>(info.param));
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        name += std::get<1>(info.param) == ChunkLayout::RowOriented
                    ? "_Row"
                    : "_Col";
        name += "_" + std::to_string(std::get<2>(info.param)) + "f";
        return name;
    });

// ----------------------------------------------------------------
// Bank timing properties over every preset.
// ----------------------------------------------------------------

class BankProperty
    : public ::testing::TestWithParam<mem::DeviceKind>
{
};

TEST_P(BankProperty, RandomSequenceKeepsTimeMonotone)
{
    const mem::TimingParams t = mem::timingFor(GetParam());
    mem::Bank bank;
    util::Random rng(5);
    Tick prev_finish{0};
    Tick bus_free{0};
    for (int i = 0; i < 500; ++i) {
        const auto o = rng.nextBool(0.5) ? Orientation::Row
                                         : Orientation::Column;
        if (o == Orientation::Column &&
            GetParam() != mem::DeviceKind::RcNvm) {
            continue;
        }
        const auto s = bank.access(
            bank.nextReady(), o,
            static_cast<unsigned>(rng.nextBounded(8)),
            static_cast<unsigned>(rng.nextBounded(64)),
            rng.nextBool(0.3), t, bus_free);
        EXPECT_LE(s.start, s.dataStart);
        EXPECT_LT(s.dataStart, s.finish);
        EXPECT_GE(s.finish, prev_finish); // bus order preserved
        EXPECT_GE(s.dataStart, bus_free);
        bus_free = s.finish;
        prev_finish = s.finish;
    }
}

TEST_P(BankProperty, HitIsNeverSlowerThanMiss)
{
    const mem::TimingParams t = mem::timingFor(GetParam());
    mem::Bank a, b;
    const auto miss =
        a.access(Tick{0}, Orientation::Row, 0, 5, false, t);
    b.access(Tick{0}, Orientation::Row, 0, 5, false, t);
    const auto hit =
        b.access(b.nextReady(), Orientation::Row, 0, 5, false, t);
    EXPECT_LT(hit.finish - hit.start, miss.finish - miss.start);
}

INSTANTIATE_TEST_SUITE_P(Presets, BankProperty,
                         ::testing::Values(mem::DeviceKind::Dram,
                                           mem::DeviceKind::Rram,
                                           mem::DeviceKind::RcNvm),
                         [](const auto &info) {
                             std::string n = toString(info.param);
                             n.erase(std::remove(n.begin(), n.end(),
                                                 '-'),
                                     n.end());
                             return n;
                         });

// ----------------------------------------------------------------
// End-to-end determinism per device.
// ----------------------------------------------------------------

class DeterminismProperty
    : public ::testing::TestWithParam<mem::DeviceKind>
{
};

TEST_P(DeterminismProperty, RandomPlanReplaysIdentically)
{
    const mem::AddressMap map(mem::geometryFor(GetParam()));
    util::Random rng(31);
    cpu::AccessPlan plan;
    for (int i = 0; i < 400; ++i) {
        mem::DecodedAddr d;
        d.channel = static_cast<unsigned>(rng.nextBounded(2));
        d.bank = static_cast<unsigned>(rng.nextBounded(8));
        d.row = static_cast<unsigned>(rng.nextBounded(64));
        d.col = static_cast<unsigned>(rng.nextBounded(32)) * 8;
        const Addr a = map.encode(d, Orientation::Row);
        if (rng.nextBool(0.25))
            plan.push_back(cpu::MemOp::store(a, 8));
        else
            plan.push_back(cpu::MemOp::load(a));
        if (rng.nextBool(0.2))
            plan.push_back(cpu::MemOp::compute(
                static_cast<std::uint32_t>(rng.nextBounded(20))));
    }
    cpu::MachineConfig config;
    config.device = GetParam();
    cpu::Machine m1(config), m2(config);
    const auto r1 = m1.run(plan);
    const auto r2 = m2.run(plan);
    EXPECT_EQ(r1.ticks, r2.ticks);
    EXPECT_EQ(r1.stats.get("mem.requests"),
              r2.stats.get("mem.requests"));
    EXPECT_EQ(r1.stats.get("mem.energyPJ"),
              r2.stats.get("mem.energyPJ"));
}

INSTANTIATE_TEST_SUITE_P(Devices, DeterminismProperty,
                         ::testing::Values(mem::DeviceKind::Dram,
                                           mem::DeviceKind::Rram,
                                           mem::DeviceKind::RcNvm,
                                           mem::DeviceKind::GsDram),
                         [](const auto &info) {
                             std::string n = toString(info.param);
                             n.erase(std::remove(n.begin(), n.end(),
                                                 '-'),
                                     n.end());
                             return n;
                         });

} // namespace
} // namespace rcnvm
