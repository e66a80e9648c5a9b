/**
 * @file
 * The benchmark's workloads. Each one sets up its inputs from the
 * seed, then runs a body that main.cc repeats and times; a traced
 * body records spans around every call into a simulator layer.
 */

#ifndef RCNVM_PERFBENCH_WORKLOADS_HH_
#define RCNVM_PERFBENCH_WORKLOADS_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"

namespace rcnvm::perfbench {

class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Build the inputs the body consumes (tables, placements, the
     *  trace file). Repeated to time it; the last result is kept. */
    virtual void setup(SpanLog *spans) = 0;

    /** One repetition. With @p spans set, the body records a span
     *  around each layer call and fills Rep::counters. */
    virtual Rep body(SpanLog *spans) = 0;

    /** Cells one repetition runs (failures of a throwing body). */
    virtual std::size_t cellsPerRep() const = 0;

    /** Untimed checks that need more than a repetition's own output,
     *  run once after the timed loop. */
    virtual void verify(std::vector<Rep> &) {}

    /** Layer probes of the traced run that bypass the body. */
    virtual void isolated(Counters &) {}
};

/**
 * @param smoke  tiny inputs for the benchmark's own tests
 * @param trace  the run is traced: its untraced half must run the same
 *               code as its traced half
 * @param workdir  directory for generated files (the trace)
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, bool smoke,
                                       bool trace,
                                       const std::string &workdir);

} // namespace rcnvm::perfbench

#endif // RCNVM_PERFBENCH_WORKLOADS_HH_
