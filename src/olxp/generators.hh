/**
 * @file
 * The OLTP request generator: the open-loop traffic source of the
 * OLXP scheduler (the closed-loop scan side is the scheduler's
 * shared-scan cursor, DESIGN.md 4i).
 *
 * An open-loop Poisson stream of point lookups and single-field
 * updates on table-a. Arrivals are independent of service
 * completions, so queueing delay under overload shows up as tail
 * latency (and, past the admission bound, as rejects) instead of
 * silently throttling the offered load.
 *
 * All randomness flows through util::Random so a seed reproduces the
 * exact request sequence.
 */

#ifndef RCNVM_OLXP_GENERATORS_HH_
#define RCNVM_OLXP_GENERATORS_HH_

#include <cstdint>

#include "cpu/op_source.hh"
#include "util/random.hh"
#include "util/types.hh"
#include "workload/queries.hh"

namespace rcnvm::olxp {

/**
 * Open-loop Poisson OLTP source over table-a: uniformly random
 * tuples, full-tuple materialisation, and a configurable fraction of
 * single-field updates (read-modify-write).
 */
class OltpGenerator
{
  public:
    /**
     * @param pd  placed database the requests compile against
     * @param mean_inter_arrival  mean of the exponential gap (ticks)
     * @param update_fraction  probability a request also writes
     * @param seed  generator seed
     * @param hot_fraction  leading fraction of the table forming the
     *   hot set (used only when @p hot_probability > 0)
     * @param hot_probability  probability a lookup targets the hot
     *   set; 0 (the default) disables skew with a draw sequence
     *   identical to the historical uniform generator
     */
    OltpGenerator(const workload::PlacedDatabase &pd,
                  Tick mean_inter_arrival, double update_fraction,
                  std::uint64_t seed, double hot_fraction = 0.0,
                  double hot_probability = 0.0);

    /** Exponential inter-arrival draw, at least one tick. */
    Tick nextGap();

    /** Draw the next random point request now; its operations are
     *  generated as the stream is pulled. */
    cpu::OpStream make();

  private:
    const workload::PlacedDatabase *pd_;
    Tick meanInterArrival_;
    double updateFraction_;
    std::uint64_t tuples_;
    std::uint64_t hotTuples_;
    double hotProbability_;
    unsigned tupleWords_;
    util::Random rng_;
};

} // namespace rcnvm::olxp

#endif // RCNVM_OLXP_GENERATORS_HH_
