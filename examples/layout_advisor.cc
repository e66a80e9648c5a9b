/**
 * @file
 * Layout advisor: given a table schema and a query mix, measure the
 * row-oriented and column-oriented intra-chunk layouts on RC-NVM
 * (Sec. 4.5.2) and report which one the database should pick,
 * together with the bin-packing placement statistics.
 *
 * This mirrors the paper's observation that the column-oriented
 * layout usually wins for OLXP because most statements combine
 * column scans with narrow row fetches.
 */

#include <iostream>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "imdb/plan_builder.hh"
#include "mem/memory_system.hh"
#include "util/logging.hh"
#include "util/table_printer.hh"

using namespace rcnvm;

namespace {

/** Fraction of statements that scan columns vs fetch whole rows. */
struct QueryMix {
    const char *name;
    double scanShare; // remainder are tuple fetches
};

/** One core's statements over tuples [lo, hi): @p scan_fields
 *  one-field scans, then whole-tuple fetches of @p points. */
cpu::OpStream
mixCore(const imdb::Database &db, imdb::Database::TableId tid,
        std::uint64_t lo, std::uint64_t hi, unsigned scan_fields,
        unsigned tw, std::vector<std::uint64_t> points)
{
    for (unsigned s = 0; s < scan_fields; ++s)
        co_yield imdb::ops::scanFieldWord(db, tid, s % tw, lo, hi, 1);
    co_yield imdb::ops::fetchTuples(db, tid, std::move(points), 0, tw,
                                    2);
}

double
runMix(const imdb::Table &table, imdb::ChunkLayout layout,
       double scan_share)
{
    const auto kind = mem::DeviceKind::RcNvm;
    mem::AddressMap map(mem::geometryFor(kind));
    imdb::Database db(kind, map);
    const auto tid = db.addTable(&table, layout);

    const std::uint64_t n = table.tuples();
    const unsigned tw = table.schema().tupleWords();
    const unsigned cores = 4;
    const auto scan_fields = static_cast<unsigned>(
        scan_share * 8.0); // of 8 "statements", how many scan

    std::vector<cpu::OpStream> streams;
    for (unsigned c = 0; c < cores; ++c) {
        const std::uint64_t lo = c * n / cores;
        const std::uint64_t hi = (c + 1) * n / cores;
        // Point statements: fetch whole tuples scattered over the
        // partition.
        std::vector<std::uint64_t> points;
        for (std::uint64_t t = lo; t < hi;
             t += 64 / (8 - scan_fields + 1))
            points.push_back(t);
        streams.push_back(mixCore(db, tid, lo, hi, scan_fields, tw,
                                  std::move(points)));
    }
    return core::runStreamed(core::table1Machine(kind),
                             std::move(streams))
        .megacycles();
}

} // namespace

int
main()
{
    util::setLogLevel(util::LogLevel::Quiet);
    const imdb::Table table("inventory",
                            imdb::Schema::uniform(16), 65536, 99);

    const QueryMix mixes[] = {
        {"OLTP-heavy (1/8 scans)", 1.0 / 8.0},
        {"balanced OLXP (4/8 scans)", 4.0 / 8.0},
        {"OLAP-heavy (7/8 scans)", 7.0 / 8.0},
    };

    util::TablePrinter t(
        "Layout advisor: 16-field table on RC-NVM (Mcycles)");
    t.addRow({"query mix", "row layout", "column layout",
              "recommendation"});
    for (const QueryMix &mix : mixes) {
        const double row = runMix(
            table, imdb::ChunkLayout::RowOriented, mix.scanShare);
        const double col =
            runMix(table, imdb::ChunkLayout::ColumnOriented,
                   mix.scanShare);
        t.addRow({mix.name, util::TablePrinter::num(row),
                  util::TablePrinter::num(col),
                  col <= row ? "column-oriented"
                             : "row-oriented"});
    }
    t.print(std::cout);

    // Placement statistics for the recommended layout.
    mem::AddressMap map(mem::geometryFor(mem::DeviceKind::RcNvm));
    imdb::Database packed(mem::DeviceKind::RcNvm, map,
                          imdb::PlacementPolicy::Packed);
    packed.addTable(&table, imdb::ChunkLayout::ColumnOriented);
    std::cout << "\npacked placement: " << packed.binsUsed()
              << " subarrays at "
              << util::TablePrinter::num(
                     100.0 * packed.packingUtilization(), 1)
              << "% utilisation (Fujita-style shelf packing with "
                 "rotation).\n";
    return 0;
}
