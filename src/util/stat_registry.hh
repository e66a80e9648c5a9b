/**
 * @file
 * Typed statistics registry: components register their counters,
 * sampled moments, histograms, gauges, and report-time formulas by
 * name; reports snapshot the registry into a StatsMap whose entries
 * carry the correct merge kind.
 *
 * A name may have several sources (one per channel, core, …); the
 * registry aggregates them at report time with the combination the
 * type prescribes — counters sum, Sampled sets moment-merge,
 * histograms bucket-merge — so derived values such as means, maxima,
 * and utilizations are computed exactly once, from fully aggregated
 * inputs, and are never themselves re-merged downstream.
 */

#ifndef RCNVM_UTIL_STAT_REGISTRY_HH_
#define RCNVM_UTIL_STAT_REGISTRY_HH_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hh"

namespace rcnvm::util {

/**
 * The registry. Registration stores pointers (or closures) into the
 * owning components; the registry must therefore not outlive them.
 * All reads aggregate across every source registered under a name.
 */
class StatRegistry
{
  public:
    /** A zero-argument value source (reads a component member). */
    using Gauge = std::function<double()>;

    /** A report-time formula over already-aggregated statistics. */
    using Formula = std::function<double(const StatRegistry &)>;

    // --- Registration. A name keeps one type for its lifetime;
    // --- registering a second type under the same name panics.

    /** Register an event counter (snapshot kind: Additive). */
    void addCounter(const std::string &name, const Counter &c);

    /** Register an additive value computed by @p fn — e.g. a counter
     *  exposed only through an accessor (snapshot kind: Additive). */
    void addCounterFn(const std::string &name, Gauge fn);

    /** Register an additive plain-double source such as accumulated
     *  energy (snapshot kind: Additive). */
    void addValue(const std::string &name, const double &v);

    /** Register a sampled moment set; snapshot flattens it into
     *  `<name>.count/.mean/.min/.max` Scalar entries. */
    void addSampled(const std::string &name, const Sampled &s);

    /** Register a histogram; snapshot flattens the non-empty buckets
     *  into `<name>.b<i>` Additive entries (i indexes the histogram's
     *  own layout) plus a `<name>.samples` Additive total. Every
     *  source of one name must share one layout. */
    void addHistogram(const std::string &name, const Histogram &h);

    /** Register a non-additive instantaneous value
     *  (snapshot kind: Scalar). */
    void addGauge(const std::string &name, Gauge fn);

    /** Register a derived statistic evaluated against the registry
     *  at report time (snapshot kind: Scalar). */
    void addFormula(const std::string &name, Formula f);

    // --- Aggregated reads (used by formulas and reports).

    /** Sum of every counter/counter-fn/value source of @p name. */
    double counter(const std::string &name) const;

    /** Moment-merge of every Sampled source of @p name. */
    Sampled sampled(const std::string &name) const;

    /** Bucket-merge of every histogram source of @p name. */
    Histogram histogram(const std::string &name) const;

    /**
     * Generic read: counters sum, gauges and formulas evaluate,
     * Sampled yields its mean. Unknown names panic — formulas must
     * reference statistics that exist.
     */
    double value(const std::string &name) const;

    /** True when @p name is registered. */
    bool contains(const std::string &name) const;

    /** Number of registered names. */
    std::size_t size() const { return entries_.size(); }

    /**
     * Flatten every registered statistic into a StatsMap: additive
     * sources via add() (kind Additive), gauges/formulas/sampled
     * moments via set() (kind Scalar).
     */
    StatsMap snapshot() const;

  private:
    enum class Kind : std::uint8_t {
        CounterK,
        Sampled,
        Histogram,
        Gauge,
        Formula,
    };

    struct Entry {
        Kind kind = Kind::CounterK;
        std::vector<const Counter *> counters;
        std::vector<const double *> values;
        std::vector<Gauge> fns; //!< counter-fns or the single gauge
        std::vector<const util::Sampled *> sampleds;
        std::vector<const Histogram *> hists;
        Formula formula;
    };

    /** Fetch-or-create @p name, enforcing one kind per name. */
    Entry &entryFor(const std::string &name, Kind kind);

    const Entry &lookup(const std::string &name) const;

    std::map<std::string, Entry> entries_;
};

} // namespace rcnvm::util

#endif // RCNVM_UTIL_STAT_REGISTRY_HH_
