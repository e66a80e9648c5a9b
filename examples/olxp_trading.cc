/**
 * @file
 * OLXP trading example: the paper's motivating scenario - a
 * high-frequency trading book that must absorb latency-critical
 * transactional updates (OLTP) while analysts run aggregate scans
 * over the same live data (OLAP), with no second copy.
 *
 * The example builds an `orders` table, composes a mixed workload
 * from the imdb::ops primitives directly (rather than the canned
 * Table-2 queries), and compares RC-NVM against DRAM and RRAM:
 *
 *   - trade ingestion:   row-oriented writes of whole orders
 *   - price updates:     scattered single-field writes
 *   - exposure report:   aggregate scan over qty x price columns
 *   - risk sweep:        predicate scan + matched-tuple fetch
 */

#include <iostream>

#include "core/presets.hh"
#include "core/experiment.hh"
#include "imdb/plan_builder.hh"
#include "mem/memory_system.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/table_printer.hh"

using namespace rcnvm;

namespace {

/** The trading book schema: 8 fixed 8-byte fields per order. */
imdb::Schema
orderSchema()
{
    return imdb::Schema({{"order_id", 8},
                         {"instrument", 8},
                         {"side", 8},
                         {"qty", 8},
                         {"price", 8},
                         {"timestamp", 8},
                         {"trader", 8},
                         {"status", 8}});
}

struct Scenario {
    const char *name;
    double mcycles[3]; // RC-NVM, RRAM, DRAM
};

/** Exposure report, one core's orders [lo, hi): qty, then price. */
cpu::OpStream
exposureCore(const imdb::Database &db, imdb::Database::TableId tid,
             std::uint64_t lo, std::uint64_t hi)
{
    co_yield imdb::ops::scanFieldWord(db, tid, 3, lo, hi, 1); // qty
    co_yield imdb::ops::scanFieldWord(db, tid, 4, lo, hi, 2); // price
}

/** Risk sweep, one core's orders [lo, hi): the price scan, then
 *  instrument and trader of the matched orders @p mine. */
cpu::OpStream
riskSweepCore(const imdb::Database &db, imdb::Database::TableId tid,
              std::uint64_t lo, std::uint64_t hi,
              std::vector<std::uint64_t> mine)
{
    co_yield imdb::ops::scanFieldWord(db, tid, 4, lo, hi, 1);
    co_yield imdb::ops::fetchTuples(db, tid, mine, 1, 2, 2);
    co_yield imdb::ops::fetchTuples(db, tid, mine, 6, 7, 2);
}

} // namespace

int
main()
{
    util::setLogLevel(util::LogLevel::Quiet);
    constexpr std::uint64_t orders = 65536;
    constexpr unsigned cores = 4;

    const imdb::Table book("orders", orderSchema(), orders, 2026);
    util::Random rng(7);

    const mem::DeviceKind devices[] = {mem::DeviceKind::RcNvm,
                                       mem::DeviceKind::Rram,
                                       mem::DeviceKind::Dram};

    Scenario scenarios[] = {
        {"trade ingestion (row writes)", {}},
        {"price updates (field writes)", {}},
        {"exposure report (2-col scan)", {}},
        {"risk sweep (scan + fetch)", {}},
    };

    for (int d = 0; d < 3; ++d) {
        const mem::DeviceKind kind = devices[d];
        mem::AddressMap map(mem::geometryFor(kind));
        imdb::Database db(kind, map);
        // OLTP-heavy books still benefit from the column layout on
        // RC-NVM because whole-order reads stay row-oriented there.
        const auto tid = db.addTable(
            &book, db.columnCapable()
                       ? imdb::ChunkLayout::ColumnOriented
                       : imdb::ChunkLayout::RowOriented);

        // Host-side decisions shared across devices.
        util::Random local(7);
        std::vector<std::uint64_t> updated, matched;
        for (std::uint64_t t = 0; t < orders; ++t) {
            if (local.nextBool(0.05))
                updated.push_back(t);
            if (book.value(4, t) > 90000) // price > threshold
                matched.push_back(t);
        }

        const auto run = [&](std::vector<cpu::OpStream> streams) {
            return core::runStreamed(core::table1Machine(kind),
                                     std::move(streams))
                .megacycles();
        };

        // Scenario 0: append a burst of new orders (whole tuples).
        {
            std::vector<cpu::OpStream> streams;
            for (unsigned c = 0; c < cores; ++c) {
                std::vector<imdb::LineRef> lines;
                for (std::uint64_t t = c * 2048;
                     t < (c + 1) * 2048; ++t) {
                    db.tupleLines(tid, t, 0, 8, lines);
                }
                streams.push_back(imdb::ops::emitLines(
                    std::move(lines), /*write=*/true, 1));
            }
            scenarios[0].mcycles[d] = run(std::move(streams));
        }

        // Scenario 1: scattered price updates.
        {
            std::vector<cpu::OpStream> streams;
            for (unsigned c = 0; c < cores; ++c) {
                std::vector<std::uint64_t> mine;
                for (const auto t : updated) {
                    if (t % cores == c)
                        mine.push_back(t);
                }
                streams.push_back(imdb::ops::storeFieldWord(
                    db, tid, std::move(mine), 4)); // price
            }
            scenarios[1].mcycles[d] = run(std::move(streams));
        }

        // Scenario 2: exposure = SUM(qty * price) over all orders.
        {
            std::vector<cpu::OpStream> streams;
            for (unsigned c = 0; c < cores; ++c) {
                streams.push_back(exposureCore(db, tid,
                                               c * orders / cores,
                                               (c + 1) * orders / cores));
            }
            scenarios[2].mcycles[d] = run(std::move(streams));
        }

        // Scenario 3: risk sweep - find expensive orders, fetch
        // instrument + trader of the matches.
        {
            std::vector<cpu::OpStream> streams;
            for (unsigned c = 0; c < cores; ++c) {
                const std::uint64_t lo = c * orders / cores;
                const std::uint64_t hi = (c + 1) * orders / cores;
                std::vector<std::uint64_t> mine;
                for (const auto t : matched) {
                    if (t >= lo && t < hi)
                        mine.push_back(t);
                }
                streams.push_back(
                    riskSweepCore(db, tid, lo, hi, std::move(mine)));
            }
            scenarios[3].mcycles[d] = run(std::move(streams));
        }
    }

    util::TablePrinter t(
        "OLXP trading book: mixed workload (Mcycles)");
    t.addRow({"scenario", "RC-NVM", "RRAM", "DRAM",
              "vs DRAM"});
    for (const Scenario &s : scenarios) {
        t.addRow({s.name, util::TablePrinter::num(s.mcycles[0]),
                  util::TablePrinter::num(s.mcycles[1]),
                  util::TablePrinter::num(s.mcycles[2]),
                  util::TablePrinter::num(s.mcycles[2] /
                                              s.mcycles[0],
                                          2) +
                      "x"});
    }
    t.print(std::cout);
    std::cout << "\nOne copy of the book serves both sides: the "
                 "transactional scenarios stay competitive while "
                 "the analytic scans exploit column access.\n";
    return 0;
}
