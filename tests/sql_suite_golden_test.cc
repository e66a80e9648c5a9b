/**
 * @file
 * Numeric golden for the SQL suite behind Figures 18-21 and the
 * energy table: every cell of the Q1-Q13 x four-device grid that
 * bench::runSqlSuite returns, at 32768 tuples (the PaperShape scale).
 * Each cell is pinned by its completion ticks and by an FNV-1a hash
 * of its stats JSON, so every statistic a figure reads is covered.
 * Runs are deterministic and the match is exact; a failure names
 * the query and device.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fnv1a.hh"
#include "util/stats_io.hh"

namespace rcnvm::bench {
namespace {

struct Cell {
    std::uint64_t ticks;
    /** FNV-1a of writeStatsJson(stats, "<query>.<device>", ticks),
     *  the cell's object in the bench's stats artifact. */
    std::uint64_t statsHash;
};

// One row per query; cells in allDevices() order: RC-NVM, RRAM,
// GS-DRAM, DRAM.
constexpr Cell kGolden[][4] = {
    // Q1
    {{75035500, 0xdbe533d80f754df0}, {206668000, 0x59353e68bfd49a55},
     {37735250, 0xec67a5d3d2330ac4}, {121478750, 0xbaba77eb9deeecd3}},
    // Q2
    {{79783500, 0x68f12bd71850bf15}, {203709500, 0xf8fcc9bdf08aa793},
     {124876500, 0x8ddb22a982c4a6b7}, {124876500, 0x09b64e25c9ddce7e}},
    // Q3
    {{481376500, 0x41e98f20df144884}, {497640500, 0x4e1fbec355426d9a},
     {264503250, 0x82d758abc583ba67}, {264503250, 0xba16a6a4b72559c4}},
    // Q4
    {{72227500, 0x076a16e70e64e7d9}, {283493000, 0x0f4e29f1fc603c74},
     {87851250, 0xb1c444b278a1323b}, {171142750, 0xa04203eb3f9766c4}},
    // Q5
    {{72227500, 0xe71f288ebd3c02b0}, {271821000, 0x00e29da1d645c740},
     {158271000, 0xed8895e87870ad5e}, {158271000, 0xdf95816785428365}},
    // Q6
    {{72227500, 0x0b3c2c693ea4a6d7}, {283493000, 0x5b6415b69a29e93e},
     {87851250, 0x03237f6b1639087d}, {170684250, 0x908fc64862767cb1}},
    // Q7
    {{72227500, 0xe4c4109cc582c9a6}, {273908000, 0xc5109aa76a8b8f2e},
     {171625000, 0x9fa9ad5631bdaccd}, {171625000, 0x514169a845adb016}},
    // Q8
    {{330889000, 0x0210e4f5a8db35ad}, {922891000, 0x4c9946c40a8f4bd9},
     {531264750, 0x5d3c544de2eb8955}, {695441250, 0xb91554b963395e3d}},
    // Q9
    {{274188000, 0x8b71c6384fc4e232}, {652445000, 0x384a5e88844267e4},
     {443360750, 0x31e8931d303255b1}, {526879750, 0x866c10b0bc6e1e9f}},
    // Q10
    {{107885500, 0x3fcb1f49ec720560}, {368881000, 0x7bc7f76561877594},
     {60999250, 0xe4750767f759d932}, {225034250, 0xb302bcfb4ffcbff6}},
    // Q11
    {{109249000, 0xde98221f5df5c9c7}, {369824500, 0xc500528461721d51},
     {61523250, 0x989af9cd6375ad39}, {225474250, 0x9a0e338c99186921}},
    // Q12
    {{43967500, 0x060d46c0e7bc65ac}, {178624500, 0xacbdb2dea6200e48},
     {110525500, 0x140a330f5d4276be}, {110525500, 0x494f3a2c6b190feb}},
    // Q13
    {{61041000, 0x29558bb3d8b8d8ae}, {184039500, 0x199a6ea80e8ddf7a},
     {112309000, 0x296e50454cc8984a}, {112309000, 0xbe656d19bfbad393}},
};

TEST(SqlSuiteGolden, TicksAndStatsPerCell)
{
    const std::vector<QueryRow> rows = runSqlSuite(32768);
    ASSERT_EQ(rows.size(), std::size(kGolden));
    for (std::size_t q = 0; q < rows.size(); ++q) {
        ASSERT_EQ(rows[q].byDevice.size(), std::size(kGolden[q]));
        for (std::size_t d = 0; d < rows[q].byDevice.size(); ++d) {
            const core::ExperimentResult &r = rows[q].byDevice[d];
            const std::string label =
                std::string(workload::querySpec(rows[q].id).name) +
                "." + mem::toString(allDevices()[d]);
            EXPECT_EQ(r.ticks.value(), kGolden[q][d].ticks) << label;

            std::ostringstream json;
            util::writeStatsJson(json, r.stats, label, r.ticks);
            test::Fnv1a h;
            h.text(json.str());
            EXPECT_EQ(h.hash, kGolden[q][d].statsHash) << label;
        }
    }
}

} // namespace
} // namespace rcnvm::bench
