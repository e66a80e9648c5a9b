/**
 * @file
 * Periodic epoch sampling driven off the event queue: every epoch
 * the sampler reads a set of registered gauges (queue depth, MSHR
 * occupancy, cumulative miss counts, …) and appends one row to a
 * time series, so reports can plot per-epoch behaviour instead of a
 * single end-of-run aggregate.
 */

#ifndef RCNVM_SIM_EPOCH_SAMPLER_HH_
#define RCNVM_SIM_EPOCH_SAMPLER_HH_

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "util/types.hh"

namespace rcnvm::sim {

/** The collected time series: one named column per gauge, one row
 *  per epoch. Plain data, freely copyable into results. */
struct EpochSeries {
    std::vector<std::string> names;        //!< column names
    std::vector<Tick> ticks;               //!< sample times
    std::vector<std::vector<double>> rows; //!< rows[i][col]

    bool empty() const { return ticks.empty(); }

    /** CSV with a `tick,<name>,...` header. */
    void writeCsv(std::ostream &os) const;
};

/**
 * Samples gauges every @p epoch ticks while the simulation has other
 * work pending. The sampling event reschedules itself only when the
 * event queue holds at least one other event, so a run's event loop
 * still terminates: once the sampler is alone in the queue it takes
 * a final sample and stops.
 */
class EpochSampler
{
  public:
    explicit EpochSampler(EventQueue &eq) : eq_(eq) {}

    /** Register a gauge column (before the first start()). */
    void
    addGauge(std::string name, std::function<double()> fn)
    {
        series_.names.push_back(std::move(name));
        gauges_.push_back(std::move(fn));
    }

    /** Begin sampling every @p epoch ticks from now. Rows append to
     *  the existing series, so multi-phase runs produce one
     *  continuous timeline. */
    void start(Tick epoch);

    /** True while a sampling event is queued. */
    bool running() const { return running_; }

    /** The series collected so far. */
    const EpochSeries &series() const { return series_; }

    /** Drop all collected rows (gauges stay registered). */
    void
    clear()
    {
        series_.ticks.clear();
        series_.rows.clear();
    }

  private:
    void fire();
    void sampleRow();

    EventQueue &eq_;
    std::vector<std::function<double()>> gauges_;
    EpochSeries series_;
    Tick epoch_{0};
    bool running_ = false;
};

} // namespace rcnvm::sim

#endif // RCNVM_SIM_EPOCH_SAMPLER_HH_
