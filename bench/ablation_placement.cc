/**
 * @file
 * Ablation: inter-chunk placement policy (Sec. 4.5.3).
 *
 * Compares the Fujita-style Packed policy (minimise subarrays, the
 * paper's bin-packing objective) against the Spread policy (one bin
 * per bank, maximise bank parallelism), and quantifies rotation's
 * effect on packing density. This documents the trade the default
 * configuration makes.
 */

#include <iostream>

#include "bench_common.hh"
#include "imdb/plan_builder.hh"
#include "mem/memory_system.hh"

using namespace rcnvm;

namespace {

struct Result {
    unsigned bins;
    double utilization;
    double mcycles;
};

/** One core's share: every field of tables @p a and @p b over tuples
 *  [lo, hi). */
cpu::OpStream
scanAllFields(const imdb::Database &db, imdb::Database::TableId a,
              imdb::Database::TableId b, std::uint64_t lo,
              std::uint64_t hi)
{
    for (unsigned w = 0; w < 16; ++w)
        co_yield imdb::ops::scanFieldWord(db, a, w, lo, hi, 1);
    for (unsigned w = 0; w < 20; ++w)
        co_yield imdb::ops::scanFieldWord(db, b, w, lo, hi, 1);
}

Result
runScan(imdb::PlacementPolicy policy, bool rotation,
        const workload::TableSet &tables)
{
    mem::AddressMap map(mem::geometryFor(mem::DeviceKind::RcNvm));
    imdb::Database db(mem::DeviceKind::RcNvm, map, policy, rotation);
    const auto a = db.addTable(tables.a.get(),
                               imdb::ChunkLayout::ColumnOriented);
    const auto b = db.addTable(tables.b.get(),
                               imdb::ChunkLayout::ColumnOriented);
    const auto c = db.addTable(tables.c.get(),
                               imdb::ChunkLayout::ColumnOriented);
    (void)c;

    // Workload: all four cores scan every field of table-a and
    // table-b over disjoint tuple ranges - the pattern where packed
    // placement makes cores collide on the few subarrays holding
    // the table while spread placement keeps their banks disjoint.
    const unsigned cores = 4;
    std::vector<cpu::OpStream> streams;
    const std::uint64_t n = tables.a->tuples();
    for (unsigned core = 0; core < cores; ++core) {
        streams.push_back(scanAllFields(db, a, b, core * n / cores,
                                        (core + 1) * n / cores));
    }

    const auto r = core::runStreamed(
        core::table1Machine(mem::DeviceKind::RcNvm), std::move(streams));
    return Result{db.binsUsed(), db.packingUtilization(),
                  r.megacycles()};
}

} // namespace

int
main()
{
    util::setLogLevel(util::LogLevel::Quiet);
    const workload::TableSet tables =
        workload::TableSet::standard(bench::benchTuples());

    util::TablePrinter t(
        "Ablation: placement policy and rotation");
    t.addRow({"policy", "rotation", "subarrays", "utilization",
              "scan time (Mcycles)"});
    for (const auto policy : {imdb::PlacementPolicy::Packed,
                              imdb::PlacementPolicy::Spread}) {
        for (const bool rotation : {true, false}) {
            const Result r = runScan(policy, rotation, tables);
            t.addRow({policy == imdb::PlacementPolicy::Packed
                          ? "packed"
                          : "spread",
                      rotation ? "on" : "off",
                      std::to_string(r.bins),
                      bench::num(100.0 * r.utilization, 1) + "%",
                      bench::num(r.mcycles)});
        }
    }
    t.print(std::cout);

    std::cout << "\npacked placement minimises subarrays (the "
                 "paper's packing objective); spreading trades "
                 "density for bank parallelism and is the "
                 "performance default.\n";
    return 0;
}
