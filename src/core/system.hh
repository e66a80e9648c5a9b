/**
 * @file
 * RcNvmSystem: the one-stop public facade. Builds the benchmark
 * database, places it on a chosen memory device, and runs Table-2
 * queries or Fig-17 micro-benchmarks on the Table-1 machine. Custom
 * workloads compose imdb::ops generators and call
 * core::runStreamed.
 */

#ifndef RCNVM_CORE_SYSTEM_HH_
#define RCNVM_CORE_SYSTEM_HH_

#include <memory>
#include <string>

#include "core/experiment.hh"
#include "mem/geometry.hh"
#include "util/random.hh"

namespace rcnvm::core {

/**
 * A ready-to-use RC-NVM evaluation system.
 *
 * Typical use (see examples/quickstart.cc):
 * @code
 *   RcNvmSystem sys({.device = mem::DeviceKind::RcNvm});
 *   auto r = sys.runQuery(workload::QueryId::Q6);
 *   std::cout << r.megacycles() << " Mcycles\n";
 * @endcode
 */
class RcNvmSystem
{
  public:
    /** Construction options. */
    struct Options {
        mem::DeviceKind device = mem::DeviceKind::RcNvm;
        std::uint64_t tuples = 65536;
        std::uint64_t microTuples = 32768;
        /** Table-content seed; RCNVM_SEED overrides the default. */
        std::uint64_t seed = util::envSeed(42);
        imdb::ChunkLayout rcLayout =
            imdb::ChunkLayout::ColumnOriented;
    };

    explicit RcNvmSystem(const Options &options);
    RcNvmSystem() : RcNvmSystem(Options{}) {}

    /** The options this system was built with. */
    const Options &options() const { return options_; }

    /** The generated benchmark tables. */
    const workload::TableSet &tables() const { return tables_; }

    /** The placed database (addresses, layouts, packing). */
    const workload::PlacedDatabase &database() const { return pd_; }

    /** Run one Table-2 query on a fresh Table-1 machine. */
    ExperimentResult
    runQuery(workload::QueryId id,
             unsigned group_lines =
                 workload::QueryWorkload::kDefaultGroup) const;

    /** Run one Fig-17 micro-benchmark. */
    ExperimentResult runMicro(workload::MicroBench mb) const;

    /** Subarrays (or 8 MB regions) used by the placement. */
    unsigned binsUsed() const { return pd_.db->binsUsed(); }

    /** Bin-packing area utilisation. */
    double packingUtilization() const
    {
        return pd_.db->packingUtilization();
    }

  private:
    Options options_;
    workload::TableSet tables_;
    std::unique_ptr<workload::QueryWorkload> workload_;
    mem::AddressMap map_;
    workload::PlacedDatabase pd_;
};

} // namespace rcnvm::core

#endif // RCNVM_CORE_SYSTEM_HH_
