/**
 * @file
 * Figure 22 reproduction: sensitivity of the mean Q1-Q13 execution
 * time to the RRAM/RC-NVM cell latency, sweeping (read access
 * time, write pulse width) from (12.5 ns, 5 ns) to (200 ns, 80 ns),
 * with the fixed-latency DRAM result as the reference line.
 *
 * Paper anchor: RC-NVM still outperforms DRAM even at cell read
 * latencies of hundreds of cycles.
 */

#include <iostream>
#include <iterator>
#include <map>

#include "bench_common.hh"
#include "mem/memory_system.hh"

using namespace rcnvm;

int
main()
{
    util::setLogLevel(util::LogLevel::Quiet);
    // The sweep runs the full suite 11 times; default to a lighter
    // scale than the other benches.
    const workload::TableSet tables =
        workload::TableSet::standard(bench::benchTuples(65536));
    const workload::QueryWorkload wl(tables);
    const double points[][2] = {{12.5, 5.0},
                                {25.0, 10.0},
                                {50.0, 20.0},
                                {100.0, 40.0},
                                {200.0, 80.0}};

    // Every machine of the figure: DRAM, then RC-NVM and RRAM at
    // each cell-latency point; each runs Q1-Q13.
    std::vector<cpu::MachineConfig> configs = {
        core::table1Machine(mem::DeviceKind::Dram)};
    for (const auto &p : points) {
        for (const auto kind :
             {mem::DeviceKind::RcNvm, mem::DeviceKind::Rram})
            configs.push_back(
                core::table1MachineWithCell(kind, p[0], p[1]));
    }
    // One placement per device, read by every cell that runs on it.
    std::map<mem::DeviceKind, workload::PlacedDatabase> placed;
    for (const cpu::MachineConfig &config : configs) {
        if (!placed.count(config.device)) {
            placed.emplace(
                config.device,
                wl.place(config.device,
                         mem::AddressMap(mem::geometryFor(config.device))));
        }
    }
    const std::vector<workload::QueryId> &ids = bench::sqlQueries();
    const std::vector<core::ExperimentResult> cells = core::runGrid(
        configs.size() * ids.size(), [&](std::size_t i) {
            const cpu::MachineConfig &config = configs[i / ids.size()];
            return core::runStreamed(
                config, wl.stream(ids[i % ids.size()],
                                  placed.at(config.device),
                                  config.hierarchy.cores));
        });
    // Mean Q1-Q13 execution time of configs[c].
    const auto meanSuite = [&](std::size_t c) {
        double sum = 0;
        for (std::size_t q = 0; q < ids.size(); ++q)
            sum += cells[c * ids.size() + q].megacycles();
        return sum / static_cast<double>(ids.size());
    };

    util::TablePrinter t(
        "Figure 22: cell-latency sensitivity, mean Q1-Q13 "
        "execution time (Mcycles)");
    t.addRow({"(read, write-pulse)", "RC-NVM", "RRAM",
              "DRAM (fixed)"});
    for (std::size_t pi = 0; pi < std::size(points); ++pi) {
        const auto &p = points[pi];
        t.addRow({"(" + bench::num(p[0], 1) + " ns, " +
                      bench::num(p[1], 1) + " ns)",
                  bench::num(meanSuite(1 + 2 * pi)),
                  bench::num(meanSuite(2 + 2 * pi)),
                  bench::num(meanSuite(0))});
    }
    t.print(std::cout);

    std::cout << "\npaper anchor: RC-NVM remains ahead of DRAM "
                 "even at (200 ns, 80 ns) cell latency.\n";
    return 0;
}
