/**
 * @file
 * Group caching walkthrough (Sec. 5): a wide VARCHAR-like field
 * spans several physical columns, and reading it in strict tuple
 * order ping-pongs the column buffer. The demo shows the three
 * plans side by side:
 *
 *   1. naive ordered reads (column-buffer thrash),
 *   2. group caching: prefetch K lines per column into the pinned
 *      LLC, consume from cache, unpin,
 *   3. the row-oriented fallback plan for comparison.
 */

#include <iostream>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "imdb/plan_builder.hh"
#include "mem/memory_system.hh"
#include "util/logging.hh"
#include "util/table_printer.hh"

using namespace rcnvm;

int
main()
{
    util::setLogLevel(util::LogLevel::Quiet);

    // A directory table whose email field spans four 8-byte words
    // (the paper's Figure-14 wide-field example).
    const imdb::Table person(
        "person",
        imdb::Schema({{"id", 8}, {"email", 32}, {"dept", 8},
                      {"salary", 8}}),
        65536, 4242);

    const auto kind = mem::DeviceKind::RcNvm;
    mem::AddressMap map(mem::geometryFor(kind));
    imdb::Database db(kind, map);
    const auto tid =
        db.addTable(&person, imdb::ChunkLayout::ColumnOriented);

    const std::vector<unsigned> email_words = {1, 2, 3, 4};
    const std::uint64_t n = person.tuples();
    const unsigned cores = 4;

    const auto run = [&](unsigned group_lines) {
        std::vector<cpu::OpStream> streams;
        for (unsigned c = 0; c < cores; ++c) {
            const std::uint64_t lo =
                util::alignDown(c * n / cores, 8);
            const std::uint64_t hi =
                util::alignDown((c + 1) * n / cores, 8);
            streams.push_back(imdb::ops::orderedMultiColumnScan(
                db, tid, email_words, lo, hi, group_lines, 2));
        }
        return core::runStreamed(core::table1Machine(kind),
                                 std::move(streams));
    };

    util::TablePrinter t(
        "Group caching demo: SELECT email FROM person (in order)");
    t.addRow({"plan", "Mcycles", "column-buffer conflicts",
              "pin operations"});
    for (const unsigned g : {0u, 16u, 64u, 128u}) {
        const auto r = run(g);
        t.addRow({g == 0 ? "naive ordered reads"
                         : "group caching, " + std::to_string(g) +
                               " lines/column",
                  util::TablePrinter::num(r.megacycles()),
                  util::TablePrinter::num(
                      r.stats.get("mem.bufferConflicts"), 0),
                  util::TablePrinter::num(
                      r.stats.get("cache.pinOps"), 0)});
    }
    t.print(std::cout);

    std::cout
        << "\nThe prefetch phase streams each column segment into "
           "the pinned LLC (cprefetch + pin), the consumption "
           "phase reads the wide field in tuple order from cache, "
           "and double buffering overlaps the next batch's "
           "prefetch with the current batch's consumption.\n";
    return 0;
}
