#include "olxp/generators.hh"

#include <cmath>

#include "imdb/plan_builder.hh"

namespace rcnvm::olxp {

namespace {

/** One point request: materialise tuple @p t of @p id, then (an
 *  update) write its field word @p w. */
cpu::OpStream
pointRequest(const imdb::Database &db, imdb::Database::TableId id,
             std::uint64_t t, unsigned tuple_words, bool update,
             unsigned w)
{
    // A braced {t} here would not compile inside co_yield (g++ 12
    // reads it as an array initializer), hence the explicit vector.
    co_yield imdb::ops::fetchTuples(db, id, std::vector<std::uint64_t>(1, t),
                                    0, tuple_words,
                                    imdb::kMaterializeCycles);
    if (update)
        co_yield imdb::ops::storeFieldWord(
            db, id, std::vector<std::uint64_t>(1, t), w);
}

} // namespace

OltpGenerator::OltpGenerator(const workload::PlacedDatabase &pd,
                             Tick mean_inter_arrival,
                             double update_fraction,
                             std::uint64_t seed, double hot_fraction,
                             double hot_probability)
    : pd_(&pd),
      meanInterArrival_(mean_inter_arrival),
      updateFraction_(update_fraction),
      tuples_(pd.db->table(pd.a).tuples()),
      hotProbability_(hot_probability),
      tupleWords_(pd.db->table(pd.a).schema().tupleWords()),
      rng_(seed)
{
    hotTuples_ = static_cast<std::uint64_t>(
        static_cast<double>(tuples_) * hot_fraction);
    if (hotTuples_ == 0)
        hotTuples_ = 1;
    if (hotTuples_ > tuples_)
        hotTuples_ = tuples_;
}

Tick
OltpGenerator::nextGap()
{
    // Inverse-transform exponential draw; nextDouble() < 1 keeps the
    // log argument positive.
    const double u = rng_.nextDouble();
    const double gap =
        -static_cast<double>(meanInterArrival_.value()) * std::log(1.0 - u);
    const Tick t{static_cast<Tick::value_type>(gap)};
    return t < Tick{1} ? Tick{1} : t;
}

cpu::OpStream
OltpGenerator::make()
{
    std::uint64_t t = rng_.nextBounded(tuples_);
    // Hot-set skew (hybrid-tier studies): folded onto the uniform
    // draw so the disabled path makes exactly the historical draw
    // sequence, keeping every seeded golden byte-identical.
    if (hotProbability_ > 0.0 && rng_.nextBool(hotProbability_))
        t %= hotTuples_;
    const bool update = rng_.nextBool(updateFraction_);
    // The written field is drawn even for read-only requests so the
    // request sequence (and therefore every downstream draw) does
    // not depend on the update coin.
    const unsigned w =
        static_cast<unsigned>(rng_.nextBounded(tupleWords_));

    return pointRequest(*pd_->db, pd_->a, t, tupleWords_, update, w);
}

} // namespace rcnvm::olxp
