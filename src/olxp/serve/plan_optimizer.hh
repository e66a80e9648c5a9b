/**
 * @file
 * The serving-layer plan optimizer: chunk and column pruning over
 * imdb::ops scan streams (DESIGN.md 4i).
 *
 * A serving-layer scan is described declaratively (ScanQuery) rather
 * than compiled eagerly, which gives the optimizer a window between
 * request generation and dispatch. Two rewrites apply:
 *
 *  - Chunk pruning: per-chunk min/max summaries (imdb::Table) prove
 *    that no tuple of a chunk can satisfy the predicate, so the
 *    chunk's lines are dropped from the plan. Pruned chunks contain
 *    no matches by construction, so the optimized and unoptimized
 *    plans produce identical query results.
 *  - Column pruning: an aggregate consumes only its predicate and
 *    aggregate fields; any other field the stream template touches
 *    is a dead load (projection pushdown) and is dropped.
 *
 * The optimizer-off path compiles the same query over the full tuple
 * range and every touched field — byte-identical to one
 * ops::scanFieldWord per touched field.
 */

#ifndef RCNVM_OLXP_SERVE_PLAN_OPTIMIZER_HH_
#define RCNVM_OLXP_SERVE_PLAN_OPTIMIZER_HH_

#include <cstdint>
#include <vector>

#include "cpu/op_source.hh"
#include "util/stats.hh"
#include "workload/queries.hh"

namespace rcnvm::olxp::serve {

/** Comparison operator of a serving-layer scan predicate. */
enum class PredOp : std::uint8_t {
    Greater, //!< field > threshold
    Less,    //!< field < threshold
};

/**
 * One declarative aggregate scan: SELECT count(*), sum(aggField)
 * FROM table WHERE predField <op> threshold over tuples [t0, t1),
 * with touchedFields naming every field the stream template reads
 * (the optimizer prunes the ones the aggregate never consumes).
 */
struct ScanQuery {
    imdb::Database::TableId table = 0;
    unsigned predField = 0;
    PredOp op = PredOp::Greater;
    std::int64_t threshold = 0;
    unsigned aggField = 1;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0; //!< exclusive
    /** Fields the unoptimized plan scans (predicate and aggregate
     *  fields included); empty means just {predField, aggField}. */
    std::vector<unsigned> touchedFields;
};

/** Host-side result of one ScanQuery (the correctness oracle). */
struct ScanResult {
    std::uint64_t matches = 0;
    std::int64_t sum = 0; //!< sum of aggField over matching tuples

    void
    merge(const ScanResult &o)
    {
        matches += o.matches;
        sum += o.sum;
    }

    bool operator==(const ScanResult &) const = default;
};

/**
 * Builds scan streams from ScanQuery descriptions, pruning chunks and
 * columns when enabled. One optimizer serves one placed database;
 * its counters are registered by the serve scheduler under
 * `serve.chunksScanned` / `serve.chunksPruned` / `serve.colsPruned`.
 */
class PlanOptimizer
{
  public:
    /**
     * @param pd       placed database scans compile against
     * @param enabled  false = the result-identical unoptimized path
     */
    PlanOptimizer(const workload::PlacedDatabase &pd, bool enabled);

    bool enabled() const { return enabled_; }

    /**
     * Compile @p q into one core's operation stream: a
     * predicate-field scan plus one scan per surviving touched
     * field, restricted to the chunks the summaries cannot rule
     * out. Pruning and its counters run now; the operations are
     * generated as the stream is pulled.
     */
    cpu::OpStream build(const ScanQuery &q);

    /**
     * Evaluate @p q host-side over the same chunks the plan visits.
     * Pruning is provably sound, so enabled/disabled evaluation
     * returns identical results for identical queries — the property
     * the optimizer test asserts.
     */
    ScanResult evaluate(const ScanQuery &q) const;

    /** True when the chunk summaries prove chunk @p chunk of
     *  @p q.table contains no tuple satisfying the predicate. */
    bool chunkPrunable(const ScanQuery &q, unsigned chunk) const;

    // --- Counters (registered by the scheduler). ---
    const util::Counter &chunksScanned() const { return chunksScanned_; }
    const util::Counter &chunksPruned() const { return chunksPruned_; }
    const util::Counter &colsPruned() const { return colsPruned_; }

  private:
    /** Append the surviving chunk sub-ranges of [q.t0, q.t1). */
    void surviveRanges(
        const ScanQuery &q,
        std::vector<std::pair<std::uint64_t, std::uint64_t>> &out);

    const workload::PlacedDatabase *pd_;
    bool enabled_;

    util::Counter chunksScanned_;
    util::Counter chunksPruned_;
    util::Counter colsPruned_;
};

} // namespace rcnvm::olxp::serve

#endif // RCNVM_OLXP_SERVE_PLAN_OPTIMIZER_HH_
