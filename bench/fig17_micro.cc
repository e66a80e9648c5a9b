/**
 * @file
 * Figure 17 reproduction: the eight micro-benchmarks - {row,col} x
 * {read,write} scans of a table stored in the row-oriented (L1) or
 * column-oriented (L2) layout - on RC-NVM, RRAM, and DRAM.
 *
 * Scans are single-stream (one core), matching the paper's
 * microbenchmark character. Paper anchors: RRAM ~35% slower than
 * DRAM on row scans; RC-NVM ~4% slower than RRAM; column scans cut
 * execution time by ~76% (L1) / 77% (L2) versus DRAM.
 */

#include <iostream>

#include "bench_common.hh"
#include "mem/memory_system.hh"

using namespace rcnvm;

int
main(int argc, char **argv)
{
    if (bench::handleUsage(
            argc, argv, "fig17_micro",
            "Figure 17 reproduction: {row,col} x {read,write} scan "
            "micro-benchmarks\non RC-NVM, RRAM, and DRAM, for "
            "row-oriented (L1) and column-oriented\n(L2) layouts."))
        return 0;

    util::setLogLevel(util::LogLevel::Quiet);
    const std::uint64_t tuples = bench::benchTuples(32768);
    const workload::TableSet tables =
        workload::TableSet::standard(16384, tuples);

    const std::vector<mem::DeviceKind> devices = {
        mem::DeviceKind::RcNvm, mem::DeviceKind::Rram,
        mem::DeviceKind::Dram};

    const std::vector<imdb::ChunkLayout> layouts = {
        imdb::ChunkLayout::RowOriented,
        imdb::ChunkLayout::ColumnOriented};
    const std::vector<workload::MicroBench> benches = {
        workload::MicroBench::RowRead, workload::MicroBench::RowWrite,
        workload::MicroBench::ColRead, workload::MicroBench::ColWrite};
    // Cell (layout, bench, device), device fastest.
    const std::vector<core::ExperimentResult> cells = core::runGrid(
        layouts.size() * benches.size() * devices.size(),
        [&](std::size_t i) {
            const std::size_t row = i / devices.size();
            // Single-stream scan on core 0.
            return core::runMicro(devices[i % devices.size()], tables,
                                  benches[row % benches.size()],
                                  layouts[row / benches.size()], 1);
        });

    core::ArtifactWriter artifacts("fig17_micro");

    util::TablePrinter t(
        "Figure 17: micro-benchmarks, execution time (Mcycles)");
    t.addRow({"benchmark", "RC-NVM", "RRAM", "DRAM",
              "RC-NVM vs DRAM"});
    std::size_t cell = 0;
    for (const auto layout : layouts) {
        const std::string suffix =
            layout == imdb::ChunkLayout::RowOriented ? "-L1" : "-L2";
        for (const auto mb : benches) {
            std::vector<double> mcyc;
            for (const auto kind : devices) {
                const core::ExperimentResult &r = cells[cell++];
                artifacts.record(std::string(toString(mb)) + suffix +
                                     "." + mem::toString(kind),
                                 r);
                mcyc.push_back(r.megacycles());
            }
            const double reduction =
                100.0 * (1.0 - mcyc[0] / mcyc[2]);
            t.addRow({std::string(toString(mb)) + suffix,
                      bench::num(mcyc[0]), bench::num(mcyc[1]),
                      bench::num(mcyc[2]),
                      (reduction >= 0 ? "-" : "+") +
                          bench::num(std::abs(reduction), 1) + "%"});
        }
    }
    t.print(std::cout);

    std::cout << "\npaper anchors: row scans - DRAM fastest, RRAM "
                 "~35% slower, RC-NVM ~4% behind RRAM; column scans "
                 "- RC-NVM cuts execution time by ~76-77% vs "
                 "DRAM.\n";
    return 0;
}
