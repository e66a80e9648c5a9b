#include "sim/epoch_sampler.hh"

#include <ostream>

#include "util/logging.hh"

namespace rcnvm::sim {

void
EpochSeries::writeCsv(std::ostream &os) const
{
    os << "tick";
    for (const auto &n : names)
        os << "," << n;
    os << "\n";
    for (std::size_t i = 0; i < ticks.size(); ++i) {
        os << ticks[i];
        for (const double v : rows[i])
            os << "," << v;
        os << "\n";
    }
}

void
EpochSampler::start(Tick epoch)
{
    if (epoch == Tick{})
        rcnvm_panic("epoch sampling period must be non-zero");
    if (running_)
        return;
    epoch_ = epoch;
    running_ = true;
    eq_.scheduleAfter(epoch_, [this] { fire(); });
}

void
EpochSampler::sampleRow()
{
    series_.ticks.push_back(eq_.now());
    std::vector<double> row;
    row.reserve(gauges_.size());
    for (const auto &g : gauges_)
        row.push_back(g());
    series_.rows.push_back(std::move(row));
}

void
EpochSampler::fire()
{
    sampleRow();
    // Reschedule only while the simulation has other work: when this
    // event is the only one left, the run is over and rescheduling
    // would keep the event loop alive forever.
    if (eq_.pending() > 0) {
        eq_.scheduleAfter(epoch_, [this] { fire(); });
    } else {
        running_ = false;
    }
}

} // namespace rcnvm::sim
