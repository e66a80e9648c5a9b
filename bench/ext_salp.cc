/**
 * @file
 * Extension bench: SALP-style subarray-level parallelism. The
 * paper cites SALP as orthogonal related work that "can be applied
 * together" with RC-NVM; this harness quantifies the combination.
 *
 * Workload: an interleaved column scan over two tables whose chunks
 * share banks but live in different subarrays (a join-style zipped
 * scan). With one buffer pair per bank every access conflicts; with
 * per-subarray buffers both scan streams keep their buffers open.
 */

#include <iostream>

#include "bench_common.hh"
#include "imdb/plan_builder.hh"
#include "mem/memory_system.hh"

using namespace rcnvm;

namespace {

struct Result {
    double mcycles;
    double conflicts;
};

Result
runZippedScan(bool salp, const workload::TableSet &tables)
{
    const auto kind = mem::DeviceKind::RcNvm;
    cpu::MachineConfig config = core::table1Machine(kind);
    config.salp = salp;

    mem::AddressMap map(mem::geometryFor(kind));
    imdb::Database db(kind, map);
    const auto a = db.addTable(tables.a.get(),
                               imdb::ChunkLayout::ColumnOriented);
    const auto c = db.addTable(tables.b.get(),
                               imdb::ChunkLayout::ColumnOriented);
    // One bin group per table: chunk i of both tables maps to bank
    // i, in different subarrays.

    const std::uint64_t n = tables.a->tuples();
    const unsigned cores = config.hierarchy.cores;
    std::vector<cpu::OpStream> streams;
    for (unsigned core = 0; core < cores; ++core) {
        const std::uint64_t lo = core * n / cores;
        const std::uint64_t hi = (core + 1) * n / cores;
        std::vector<imdb::LineRef> la, lc, zipped;
        db.fieldScanLines(a, 9, lo, hi, la);
        db.fieldScanLines(c, 9, lo, hi, lc);
        for (std::size_t i = 0;
             i < std::max(la.size(), lc.size()); ++i) {
            if (i < la.size())
                zipped.push_back(la[i]);
            if (i < lc.size())
                zipped.push_back(lc[i]);
        }
        streams.push_back(
            imdb::ops::emitLines(std::move(zipped), false, 1));
    }

    const auto r = core::runStreamed(config, std::move(streams));
    return Result{r.megacycles(),
                  r.stats.at("mem.bufferConflicts") +
                      r.stats.at("mem.orientationSwitches")};
}

} // namespace

int
main()
{
    util::setLogLevel(util::LogLevel::Quiet);
    const workload::TableSet tables =
        workload::TableSet::standard(bench::benchTuples(65536));

    util::TablePrinter t(
        "Extension: SALP on RC-NVM, zipped two-table column scan");
    t.addRow({"configuration", "Mcycles", "buffer conflicts"});
    const Result base = runZippedScan(false, tables);
    const Result salp = runZippedScan(true, tables);
    t.addRow({"per-bank buffers (paper)",
              bench::num(base.mcycles),
              bench::num(base.conflicts, 0)});
    t.addRow({"per-subarray buffers (SALP)",
              bench::num(salp.mcycles),
              bench::num(salp.conflicts, 0)});
    t.print(std::cout);

    std::cout << "\nSALP gain: "
              << bench::num(
                     100.0 * (1.0 - salp.mcycles / base.mcycles), 1)
              << "% on the interleaved scan (the paper's claim that "
                 "SALP composes with RC-NVM).\n";
    return 0;
}
