#include "olxp/serve/plan_optimizer.hh"

#include <algorithm>

#include "imdb/plan_builder.hh"
#include "util/logging.hh"

namespace rcnvm::olxp::serve {

namespace {

/** True when @p q's predicate holds for @p v. */
bool
matches(const ScanQuery &q, std::int64_t v)
{
    return q.op == PredOp::Greater ? v > q.threshold
                                   : v < q.threshold;
}

/** The fields the aggregate actually consumes, in scan order. */
std::vector<unsigned>
consumedFields(const ScanQuery &q)
{
    if (q.aggField == q.predField)
        return {q.predField};
    return {q.predField, q.aggField};
}

/** The fields the unoptimized plan scans: the touched set, or the
 *  consumed set when the template named none. */
std::vector<unsigned>
touchedFields(const ScanQuery &q)
{
    if (q.touchedFields.empty())
        return consumedFields(q);
    return q.touchedFields;
}

/** Each of @p fields over each tuple range of @p ranges. The
 *  predicate field leads (compare cost); every other field is
 *  aggregated/materialised per value. */
cpu::OpStream
scanRanges(const imdb::Database &db, imdb::Database::TableId table,
           std::vector<unsigned> fields,
           std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges)
{
    bool first = true;
    for (const unsigned f : fields) {
        const unsigned cost =
            first ? imdb::kCompareCycles : imdb::kAggregateCycles;
        for (const auto &[lo, hi] : ranges)
            co_yield imdb::ops::scanFieldWord(db, table, f, lo, hi, cost);
        first = false;
    }
}

} // namespace

PlanOptimizer::PlanOptimizer(const workload::PlacedDatabase &pd,
                             bool enabled)
    : pd_(&pd), enabled_(enabled)
{
}

bool
PlanOptimizer::chunkPrunable(const ScanQuery &q, unsigned chunk) const
{
    const imdb::Table &t = pd_->db->table(q.table);
    const imdb::Table::ChunkMinMax mm =
        t.chunkStats(q.predField, chunk);
    // The summary covers the whole chunk — a superset of whatever
    // part the query range touches — so ruling the chunk out is
    // sound even for partially covered chunks.
    return q.op == PredOp::Greater ? mm.max <= q.threshold
                                   : mm.min >= q.threshold;
}

void
PlanOptimizer::surviveRanges(
    const ScanQuery &q,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> &out)
{
    constexpr std::uint64_t ct = imdb::Table::chunkTuples;
    for (std::uint64_t lo = q.t0; lo < q.t1;) {
        const unsigned chunk = static_cast<unsigned>(lo / ct);
        const std::uint64_t hi = std::min(q.t1, (chunk + 1) * ct);
        if (enabled_ && chunkPrunable(q, chunk)) {
            chunksPruned_.inc();
        } else {
            chunksScanned_.inc();
            // Extend the previous range instead of opening a new one
            // so surviving neighbours scan as one contiguous run.
            if (!out.empty() && out.back().second == lo)
                out.back().second = hi;
            else
                out.emplace_back(lo, hi);
        }
        lo = hi;
    }
}

cpu::OpStream
PlanOptimizer::build(const ScanQuery &q)
{
    if (q.t1 > pd_->db->table(q.table).tuples() || q.t0 >= q.t1)
        rcnvm_fatal("serve scan range [", q.t0, ", ", q.t1,
                    ") invalid for table of ",
                    pd_->db->table(q.table).tuples(), " tuples");

    std::vector<unsigned> fields = touchedFields(q);
    if (enabled_) {
        const std::vector<unsigned> consumed = consumedFields(q);
        std::uint64_t dropped = 0;
        for (const unsigned f : fields) {
            if (std::find(consumed.begin(), consumed.end(), f) ==
                consumed.end())
                ++dropped;
        }
        colsPruned_.inc(dropped);
        fields = consumed;
    }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    surviveRanges(q, ranges);

    return scanRanges(*pd_->db, q.table, std::move(fields),
                      std::move(ranges));
}

ScanResult
PlanOptimizer::evaluate(const ScanQuery &q) const
{
    constexpr std::uint64_t ct = imdb::Table::chunkTuples;
    const imdb::Table &t = pd_->db->table(q.table);
    ScanResult r;
    for (std::uint64_t lo = q.t0; lo < q.t1;) {
        const unsigned chunk = static_cast<unsigned>(lo / ct);
        const std::uint64_t hi = std::min(q.t1, (chunk + 1) * ct);
        if (!(enabled_ && chunkPrunable(q, chunk))) {
            for (std::uint64_t i = lo; i < hi; ++i) {
                const std::int64_t v = t.value(q.predField, i);
                if (matches(q, v)) {
                    ++r.matches;
                    r.sum += t.value(q.aggField, i);
                }
            }
        }
        lo = hi;
    }
    return r;
}

} // namespace rcnvm::olxp::serve
