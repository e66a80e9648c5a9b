/**
 * @file
 * Experiment runner utilities shared by benches, tests, and
 * examples: stream a compiled query (or any per-core generators)
 * through a machine and collect the statistics the paper reports.
 */

#ifndef RCNVM_CORE_EXPERIMENT_HH_
#define RCNVM_CORE_EXPERIMENT_HH_

#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "workload/micro.hh"
#include "workload/queries.hh"

namespace rcnvm::core {

/** Result of running one query/benchmark on one device. */
struct ExperimentResult {
    Tick ticks{0};
    util::StatsMap stats;
    /** Per-epoch time series; empty unless epoch sampling was on
     *  (MachineConfig::epochTicks or RCNVM_EPOCH_TICKS). */
    sim::EpochSeries series;

    double cycles() const { return static_cast<double>(ticks.value()) / 500.0; }
    double megacycles() const { return cycles() / 1.0e6; }

    /** Demand LLC misses (the Figure-19 metric). */
    double llcMisses() const
    {
        return stats.get("cache.llcMisses");
    }

    /** Combined row/column buffer miss rate (Figure-20 metric). */
    double bufferMissRate() const
    {
        return stats.get("mem.bufferMissRate");
    }

    /** Misses folded into an in-flight MSHR (MLP observability). */
    double mshrCoalesced() const
    {
        return stats.get("cache.mshrCoalesced");
    }

    /** Accesses refused by the saturated miss path (core retries). */
    double retries() const { return stats.get("cache.retries"); }

    /**
     * Cache synonym and coherence overhead ratio (Figure-21
     * metric): the extra work introduced by RC-NVM's dual-address
     * bookkeeping (crossing probes, duplicate updates, eviction
     * clean-up). Ordinary MESI traffic exists on the baselines too
     * and is therefore not counted.
     */
    double
    coherenceOverheadRatio() const
    {
        const double total = static_cast<double>(ticks.value());
        if (total <= 0)
            return 0.0;
        // Overhead ticks accumulate per event across cores;
        // normalise by total machine time (cores x ticks).
        const double cores = 4.0;
        return stats.get("cache.synonymTicks") / (total * cores);
    }
};

/**
 * Run all phases of a compiled query on a fresh machine for
 * @p config. Phases execute back to back on the same machine, so
 * cache and bank state carries over (build -> probe -> fetch). Each
 * core pulls its operations from its generator
 * (Machine::runSources), so no phase is ever materialised; the
 * result is byte-identical to running the drained query.
 */
ExperimentResult runStreamed(const cpu::MachineConfig &config,
                             workload::QueryStreams query);

/** runStreamed() of a single phase: one generator per core. */
ExperimentResult runStreamed(const cpu::MachineConfig &config,
                             std::vector<cpu::OpStream> cores);

/**
 * Convenience: place the workload on @p kind, compile query @p id
 * to streams, and run it on the Table-1 machine.
 */
ExperimentResult runQuery(mem::DeviceKind kind,
                          const workload::QueryWorkload &workload,
                          workload::QueryId id,
                          unsigned group_lines =
                              workload::QueryWorkload::kDefaultGroup);

/** Convenience: run one micro-benchmark on @p kind, streamed over
 *  @p cores cores (all of the Table-1 machine's by default). */
ExperimentResult runMicro(mem::DeviceKind kind,
                          const workload::TableSet &tables,
                          workload::MicroBench mb,
                          imdb::ChunkLayout layout,
                          unsigned cores = 0);

/**
 * Collects labeled runs and writes them as machine-readable
 * artifacts when the RCNVM_STATS_DIR environment variable names a
 * directory: `<dir>/<name>.json` (schema rcnvm-stats-artifact-v1, a
 * "runs" array of per-run rcnvm-stats-v1 objects) and
 * `<dir>/<name>.csv` (`label,stat,value` rows). With the variable
 * unset every call is a no-op, so benches wire it unconditionally.
 * Files are written by the destructor; non-epoch-empty series are
 * exported alongside as `<dir>/<name>.<label>.epochs.csv`.
 */
class ArtifactWriter
{
  public:
    explicit ArtifactWriter(std::string name);
    ~ArtifactWriter();

    ArtifactWriter(const ArtifactWriter &) = delete;
    ArtifactWriter &operator=(const ArtifactWriter &) = delete;

    /** True when RCNVM_STATS_DIR is set (artifacts will be written). */
    bool enabled() const { return !dir_.empty(); }

    /** Record one labeled run. */
    void record(const std::string &label, const ExperimentResult &r);

    /** Record a bare stats map (callers without an
     *  ExperimentResult, e.g. raw machine runs). */
    void record(const std::string &label, const util::StatsMap &stats,
                Tick ticks = Tick{});

  private:
    struct Run {
        std::string label;
        util::StatsMap stats;
        Tick ticks{0};
        sim::EpochSeries series;
    };

    std::string name_;
    std::string dir_; //!< empty = disabled
    std::vector<Run> runs_;
};

} // namespace rcnvm::core

#endif // RCNVM_CORE_EXPERIMENT_HH_
