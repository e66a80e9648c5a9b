/**
 * @file
 * Table 1 reproduction: print the simulated system configuration
 * actually instantiated by the presets (processor, caches, memory
 * controller, and the three device timing blocks).
 */

#include <iostream>

#include "bench_common.hh"
#include "mem/memory_system.hh"

using namespace rcnvm;

namespace {

void
printDevice(util::TablePrinter &t, mem::DeviceKind kind)
{
    const mem::TimingParams p = mem::timingFor(kind);
    const mem::Geometry g = mem::geometryFor(kind);
    const double period_ns =
        static_cast<double>(p.clkPeriod.value()) /
        static_cast<double>(ticksPerNs.value());
    t.addRow({toString(kind),
              bench::num(1000.0 / period_ns, 0) + " MT/s",
              std::to_string(p.tCAS.value()), std::to_string(p.tRCD.value()),
              std::to_string(p.tRP.value()), std::to_string(p.tRAS.value()),
              std::to_string(g.channels),
              std::to_string(g.ranksPerChannel),
              std::to_string(g.banksPerRank),
              std::to_string(g.subarraysPerBank *
                             g.rowsPerSubarray),
              std::to_string(g.colsPerSubarray),
              bench::num(static_cast<double>(g.rowBytes()), 0) + " B",
              bench::num(static_cast<double>(g.capacityBytes()) /
                             (1 << 30),
                         0) +
                  " GB",
              bench::num(static_cast<double>(p.cyc(p.tRCD).value()) /
                             static_cast<double>(ticksPerNs.value()),
                         1) +
                  " ns",
              bench::num(static_cast<double>(p.cyc(p.tWR).value()) /
                             static_cast<double>(ticksPerNs.value()),
                         1) +
                  " ns"});
}

/** "<line>B line, <ways>-way, " of one cache level. */
std::string
cacheShape(const cache::CacheConfig &c)
{
    return std::to_string(c.lineBytes) + "B line, " +
           std::to_string(c.ways) + "-way, ";
}

} // namespace

int
main()
{
    util::setLogLevel(util::LogLevel::Quiet);
    const auto cfg = core::table1Machine(mem::DeviceKind::RcNvm);
    const cache::HierarchyConfig &h = cfg.hierarchy;
    const double ghz = static_cast<double>(ticksPerNs.value()) /
                       static_cast<double>(h.cpuPeriod.value());

    util::TablePrinter proc("Table 1a: processor and caches");
    proc.addRow({"component", "configuration"});
    proc.addRow({"Processor", std::to_string(h.cores) +
                                  " cores, x86-like, " +
                                  bench::num(ghz, 1) + " GHz"});
    proc.addRow({"L1 cache", "private, " + cacheShape(h.l1) +
                                 std::to_string(h.l1.sizeBytes / 1024) +
                                 " KB"});
    proc.addRow({"L2 cache", "private, " + cacheShape(h.l2) +
                                 std::to_string(h.l2.sizeBytes / 1024) +
                                 " KB"});
    proc.addRow({"L3 cache",
                 "shared, " + cacheShape(h.l3) +
                     std::to_string(h.l3.sizeBytes / (1024 * 1024)) +
                     " MB"});
    proc.addRow({"Mem controller",
                 std::to_string(cfg.memQueueCapacity) +
                     "-entry request queue per channel, FR-FCFS"});
    proc.print(std::cout);
    std::cout << "\n";

    util::TablePrinter dev("Table 1b: memory devices");
    dev.addRow({"device", "rate", "tCAS", "tRCD", "tRP", "tRAS",
                "ch", "ranks", "banks", "rows", "cols", "row buf",
                "capacity", "read", "write pulse"});
    printDevice(dev, mem::DeviceKind::Dram);
    printDevice(dev, mem::DeviceKind::Rram);
    printDevice(dev, mem::DeviceKind::RcNvm);
    dev.print(std::cout);

    std::cout << "\nRC-NVM additionally exposes an 8 KB column "
                 "buffer per bank and the cload/cstore access "
                 "path.\n";
    return 0;
}
