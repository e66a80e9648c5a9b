#include "core/system.hh"

#include "core/presets.hh"

namespace rcnvm::core {

RcNvmSystem::RcNvmSystem(const Options &options)
    : options_(options),
      tables_(workload::TableSet::standard(
          options.tuples, options.microTuples, options.seed)),
      workload_(std::make_unique<workload::QueryWorkload>(tables_)),
      map_(mem::geometryFor(options.device)),
      pd_(workload_->place(options.device, map_, options.rcLayout))
{
}

ExperimentResult
RcNvmSystem::runQuery(workload::QueryId id,
                      unsigned group_lines) const
{
    const cpu::MachineConfig config = table1Machine(options_.device);
    return runStreamed(config,
                       workload_->stream(id, pd_, config.hierarchy.cores,
                                         group_lines));
}

ExperimentResult
RcNvmSystem::runMicro(workload::MicroBench mb) const
{
    return core::runMicro(options_.device, tables_, mb,
                          options_.rcLayout);
}

} // namespace rcnvm::core
