/**
 * @file
 * Ablation: memory-level parallelism (outstanding accesses per
 * core). The paper's gem5 cores expose little MLP; this sweep shows
 * how the headline RC-NVM advantage depends on it, documenting the
 * calibration choice (window = 4) used by the Table-1 preset.
 */

#include <iostream>

#include "bench_common.hh"
#include "mem/memory_system.hh"

using namespace rcnvm;

int
main()
{
    util::setLogLevel(util::LogLevel::Quiet);
    const workload::TableSet tables =
        workload::TableSet::standard(bench::benchTuples(65536));
    const workload::QueryWorkload wl(tables);

    util::TablePrinter t(
        "Ablation: per-core outstanding-access window (Q6)");
    t.addRow({"window", "RC-NVM (Mcyc)", "DRAM (Mcyc)",
              "RC-NVM speedup"});
    for (const unsigned window : {1u, 2u, 4u, 8u, 16u}) {
        double mcyc[2];
        int i = 0;
        for (const auto kind :
             {mem::DeviceKind::RcNvm, mem::DeviceKind::Dram}) {
            cpu::MachineConfig config = core::table1Machine(kind);
            config.window = window;
            mem::AddressMap map(mem::geometryFor(kind));
            const auto pd = wl.place(kind, map);
            mcyc[i++] = core::runStreamed(
                            config, wl.stream(workload::QueryId::Q6, pd,
                                              config.hierarchy.cores))
                            .megacycles();
        }
        t.addRow({std::to_string(window), bench::num(mcyc[0]),
                  bench::num(mcyc[1]),
                  bench::num(mcyc[1] / mcyc[0], 2) + "x"});
    }
    t.print(std::cout);

    std::cout << "\nlow-MLP cores (the paper's regime) are "
                 "latency-bound and favour RC-NVM most; deep "
                 "windows push both devices toward the bus "
                 "bandwidth bound.\n";
    return 0;
}
