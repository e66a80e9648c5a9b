/**
 * @file
 * Shared scaffolding for the figure/table reproduction benches:
 * standard workload construction, device lists, and run helpers.
 *
 * Every bench prints the same rows/series the paper reports; the
 * scale (tuples per table) can be overridden with the RCNVM_TUPLES
 * environment variable.
 */

#ifndef RCNVM_BENCH_BENCH_COMMON_HH_
#define RCNVM_BENCH_BENCH_COMMON_HH_

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/presets.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/table_printer.hh"

namespace rcnvm::bench {

/**
 * Standard `--help` handling for the bench binaries.
 *
 * Scans argv for `--help`/`-h`; when present prints a usage block —
 * the one-line description, any bench-specific option lines, and the
 * environment knobs every bench honours — and returns true so main
 * can exit 0 without running the sweep.
 */
inline bool
handleUsage(int argc, char **argv, const std::string &name,
            const std::string &description,
            const std::vector<std::string> &options = {})
{
    bool wanted = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--help" ||
            std::string(argv[i]) == "-h")
            wanted = true;
    }
    if (!wanted)
        return false;

    std::cout << "usage: " << name << " [--help]";
    for (const std::string &opt : options)
        std::cout << " [" << opt.substr(0, opt.find(' ')) << "]";
    std::cout << "\n\n" << description << "\n";
    if (!options.empty()) {
        std::cout << "\noptions:\n";
        for (const std::string &opt : options)
            std::cout << "  " << opt << "\n";
    }
    std::cout <<
        "\nenvironment:\n"
        "  RCNVM_SEED          experiment seed (tables and request\n"
        "                      generators); same seed => identical\n"
        "                      statistics\n"
        "  RCNVM_TUPLES        tuples per benchmark table\n"
        "  RCNVM_STATS_DIR     write per-run stats CSV artifacts\n"
        "                      into this directory\n"
        "  RCNVM_EPOCH_TICKS   sample gauges every N ticks into an\n"
        "                      epoch series (exported with stats)\n"
        "  RCNVM_CHROME_TRACE  write a chrome://tracing JSON to this\n"
        "                      path\n";
    return true;
}

/** Tuples per benchmark table (override: RCNVM_TUPLES; malformed
 *  values are a fatal configuration error, not a silent 0). */
inline std::uint64_t
benchTuples(std::uint64_t fallback = 131072)
{
    return util::envUint64("RCNVM_TUPLES", fallback);
}

/** The four devices in the order the paper plots them. */
inline const std::vector<mem::DeviceKind> &
allDevices()
{
    static const std::vector<mem::DeviceKind> devices = {
        mem::DeviceKind::RcNvm,
        mem::DeviceKind::Rram,
        mem::DeviceKind::GsDram,
        mem::DeviceKind::Dram,
    };
    return devices;
}

/** The timed execution-time query set of Figures 18-21: the first
 *  workload::kTimedQueryCount entries of Table 2 (Q1-Q13). */
inline const std::vector<workload::QueryId> &
sqlQueries()
{
    static const std::vector<workload::QueryId> ids = [] {
        std::vector<workload::QueryId> v;
        v.reserve(workload::kTimedQueryCount);
        for (unsigned i = 0; i < workload::kTimedQueryCount; ++i)
            v.push_back(workload::allQueries()[i].id);
        return v;
    }();
    return ids;
}

/** "Q1-Q13"-style label of the timed suite, derived from the same
 *  constant the suite itself is built from. */
inline std::string
sqlSuiteLabel()
{
    return "Q1-Q" + std::to_string(workload::kTimedQueryCount);
}

/** Results of one query on every device. */
struct QueryRow {
    workload::QueryId id;
    std::vector<core::ExperimentResult> byDevice; // allDevices order
};

/**
 * Run the whole Q1-Q13 suite on all four devices and return the
 * grid of results (the shared input of Figures 18, 19, 20, 21).
 * The 52 cells run on @p workers host threads (core::runGrid); the
 * results do not depend on the count.
 */
inline std::vector<QueryRow>
runSqlSuite(std::uint64_t tuples, unsigned workers = core::hostWorkers())
{
    util::setLogLevel(util::LogLevel::Quiet);
    const workload::TableSet tables =
        workload::TableSet::standard(tuples);
    const workload::QueryWorkload workload(tables);
    const std::vector<workload::QueryId> &ids = sqlQueries();
    const std::vector<mem::DeviceKind> &devices = allDevices();

    std::vector<core::ExperimentResult> cells = core::runGrid(
        ids.size() * devices.size(),
        [&](std::size_t i) {
            return core::runQuery(devices[i % devices.size()], workload,
                                  ids[i / devices.size()]);
        },
        workers);
    std::vector<QueryRow> rows;
    for (std::size_t q = 0; q < ids.size(); ++q) {
        QueryRow row;
        row.id = ids[q];
        for (std::size_t d = 0; d < devices.size(); ++d)
            row.byDevice.push_back(
                std::move(cells[q * devices.size() + d]));
        rows.push_back(std::move(row));
    }
    return rows;
}

/** Shorthand for TablePrinter::num. */
inline std::string
num(double v, int precision = 2)
{
    return util::TablePrinter::num(v, precision);
}

} // namespace rcnvm::bench

#endif // RCNVM_BENCH_BENCH_COMMON_HH_
