#include "workload/queries.hh"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "imdb/plan_builder.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace rcnvm::workload {

using cpu::MemOp;
using cpu::OpStream;
using imdb::ChunkLayout;
using imdb::Database;
using imdb::kAggregateCycles;
using imdb::kCompareCycles;
using imdb::kHashCycles;
using imdb::kMaterializeCycles;
using imdb::LineRef;

namespace ops = imdb::ops;

namespace {

// Table-2 predicate selectivities.
constexpr double kQ1Sel = 0.10;
constexpr double kQ2Sel = 0.05; //!< "most of f10 is NOT greater than x"
constexpr double kQ3Sel = 0.90; //!< "most of f10 is greater than x"
constexpr double kQ4Sel = 0.50;
constexpr double kQ5Sel = 0.50;
constexpr double kQ6Sel = 0.50;
constexpr double kQ7Sel = 0.50;
constexpr double kQ10Sel = 0.30; //!< per predicate
constexpr double kQ11Sel = 0.30;
constexpr double kQ12Band = 0.01; //!< equality band selectivity
constexpr double kQ13Band = 0.05;
/** Q14/Q15 group-caching lines per column: what
 *  QueryWorkload::kDefaultGroup selects. */
constexpr unsigned kGroupLines = 128;

const std::vector<QuerySpec> specs = {
    {QueryId::Q1, "Q1",
     "SELECT f3, f4 FROM table-a WHERE f10 > x", "OLXP"},
    {QueryId::Q2, "Q2",
     "SELECT * FROM table-b WHERE f10 > x (low selectivity)", "OLTP"},
    {QueryId::Q3, "Q3",
     "SELECT * FROM table-b WHERE f10 > x (high selectivity)",
     "OLTP"},
    {QueryId::Q4, "Q4",
     "SELECT SUM(f9) FROM table-a WHERE f10 > x", "OLAP"},
    {QueryId::Q5, "Q5",
     "SELECT SUM(f9) FROM table-b WHERE f10 > x", "OLAP"},
    {QueryId::Q6, "Q6",
     "SELECT AVG(f1) FROM table-a WHERE f10 > x", "OLAP"},
    {QueryId::Q7, "Q7",
     "SELECT AVG(f1) FROM table-b WHERE f10 > x", "OLAP"},
    {QueryId::Q8, "Q8",
     "SELECT a.f3, b.f4 FROM table-a a, table-b b WHERE a.f1 > b.f1 "
     "AND a.f9 = b.f9",
     "OLXP"},
    {QueryId::Q9, "Q9",
     "SELECT a.f3, b.f4 FROM table-a a, table-b b WHERE a.f9 = b.f9",
     "OLXP"},
    {QueryId::Q10, "Q10",
     "SELECT f3, f4 FROM table-a WHERE f1 > x AND f9 < y", "OLTP"},
    {QueryId::Q11, "Q11",
     "SELECT f3, f4 FROM table-a WHERE f1 > x AND f2 < y", "OLTP"},
    {QueryId::Q12, "Q12",
     "UPDATE table-b SET f3 = x, f4 = y WHERE f10 = z", "OLTP"},
    {QueryId::Q13, "Q13",
     "UPDATE table-b SET f9 = x WHERE f10 = y", "OLTP"},
    {QueryId::Q14, "Q14",
     "SELECT SUM(f2_wide) FROM table-c (wide field)",
     "group-caching"},
    {QueryId::Q15, "Q15",
     "SELECT f3, f6, f10 FROM table-a (row order)", "group-caching"},
};

/** SplitMix-style host hash used for join slot selection. */
std::uint64_t
hashKey(std::int64_t key)
{
    std::uint64_t z = static_cast<std::uint64_t>(key) +
                      0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Matched tuple indices within [lo, hi). */
std::vector<std::uint64_t>
matchedIn(const std::vector<bool> &matches, std::uint64_t lo,
          std::uint64_t hi)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t t = lo; t < hi; ++t) {
        if (matches[t])
            out.push_back(t);
    }
    return out;
}

std::uint64_t
countMatches(const std::vector<bool> &matches)
{
    std::uint64_t n = 0;
    for (const bool m : matches)
        n += m ? 1 : 0;
    return n;
}

/** Host-side predicate results shared by every core's stream. */
using Matches = std::shared_ptr<const std::vector<bool>>;

struct Range {
    std::uint64_t lo, hi;
};

/** Tuple-range partition for core @p c of @p cores. */
Range
corePartition(std::uint64_t tuples, unsigned cores, unsigned c)
{
    // 8-aligned boundaries keep line ownership per core.
    const std::uint64_t per =
        util::alignUp(util::divCeil(tuples, cores), 8);
    const std::uint64_t lo = std::min<std::uint64_t>(
        tuples, std::uint64_t{c} * per);
    const std::uint64_t hi = std::min<std::uint64_t>(
        tuples, lo + per);
    return Range{lo, hi};
}

/** One stream per core, @p body(c) making core c's. */
template <class Body>
std::vector<OpStream>
perCore(unsigned cores, Body body)
{
    std::vector<OpStream> streams;
    streams.reserve(cores);
    for (unsigned c = 0; c < cores; ++c)
        streams.push_back(body(c));
    return streams;
}

// Per-core bodies of the compiled queries. They are coroutines, so
// every argument is copied into the frame except the database
// (DESIGN.md section 4l).

/** Predicate scan, then the matched tuples' output words. */
OpStream
selectFetchCore(const Database &db, Database::TableId tid,
                unsigned pred_word, Range r, Matches matches,
                unsigned out_w0, unsigned out_w1)
{
    co_yield ops::scanFieldWord(db, tid, pred_word, r.lo, r.hi,
                                kCompareCycles);
    // The query optimizer picks row or column access to minimise
    // memory accesses (Sec. 5): sparse matches use the Figure-12
    // row-access plan, dense ones go columnar.
    co_yield ops::fetchTuplesBest(db, tid,
                                  matchedIn(*matches, r.lo, r.hi),
                                  out_w0, out_w1, kMaterializeCycles);
}

/** Every field column of the core's tuples. */
OpStream
selectAllFieldsCore(const Database &db, Database::TableId tid,
                    unsigned pred_word, Range r)
{
    const unsigned tw = db.table(tid).schema().tupleWords();
    for (unsigned w = 0; w < tw; ++w) {
        co_yield ops::scanFieldWord(db, tid, w, r.lo, r.hi,
                                    w == pred_word ? kCompareCycles : 0);
    }
}

/** Predicate scan, then the aggregated column or matched values. */
OpStream
aggregateCore(const Database &db, Database::TableId tid,
              unsigned pred_word, unsigned agg_word, Range r,
              bool scan_agg_column, Matches matches)
{
    co_yield ops::scanFieldWord(db, tid, pred_word, r.lo, r.hi,
                                kCompareCycles);
    if (scan_agg_column) {
        co_yield ops::scanFieldWord(db, tid, agg_word, r.lo, r.hi,
                                    kAggregateCycles);
    } else {
        co_yield ops::fetchTuplesBest(db, tid,
                                      matchedIn(*matches, r.lo, r.hi),
                                      agg_word, agg_word + 1,
                                      kAggregateCycles);
    }
}

/** Both predicate scans, then f3/f4 of the tuples matching both. */
OpStream
twoPredicateCore(const Database &db, Database::TableId tid,
                 unsigned pred1, unsigned pred2, Range r, Matches both)
{
    co_yield ops::scanFieldWord(db, tid, pred1, r.lo, r.hi,
                                kCompareCycles);
    co_yield ops::scanFieldWord(db, tid, pred2, r.lo, r.hi,
                                kCompareCycles);
    co_yield ops::fetchTuplesBest(db, tid, matchedIn(*both, r.lo, r.hi),
                                  2, 4, kMaterializeCycles);
}

/**
 * A hash-join side: scan the key (and filter payload) column of
 * @p tid, then write (build) or read (probe) each key's hash slot.
 */
OpStream
joinSideCore(const Database &db, Database::TableId tid,
             Database::TableId hash, bool with_f1_filter, bool build,
             Range r)
{
    const unsigned f9 = 8, f1 = 0;
    co_yield ops::scanFieldWord(db, tid, f9, r.lo, r.hi, 0);
    if (with_f1_filter)
        co_yield ops::scanFieldWord(db, tid, f1, r.lo, r.hi, 0);
    const imdb::Table &table = db.table(tid);
    const std::uint64_t slots = db.table(hash).tuples();
    std::vector<std::uint64_t> keys;
    keys.reserve(static_cast<std::size_t>(r.hi - r.lo));
    for (std::uint64_t t = r.lo; t < r.hi; ++t)
        keys.push_back(hashKey(table.value(f9, t)) % slots);
    co_yield ops::hashAccess(db, hash, std::move(keys), build,
                             kHashCycles);
}

/** The join's output: a.f3 and b.f4 of matched tuples. */
OpStream
joinFetchCore(const Database &db, Database::TableId a,
              Database::TableId b, Range ra, Range rb, Matches match_a,
              Matches match_b, std::uint64_t pair_compute)
{
    co_yield ops::fetchTuplesBest(db, a,
                                  matchedIn(*match_a, ra.lo, ra.hi), 2,
                                  3, 0);
    co_yield ops::fetchTuplesBest(db, b,
                                  matchedIn(*match_b, rb.lo, rb.hi), 3,
                                  4, 0);
    co_yield ops::compute(pair_compute);
}

/** Predicate scan, then the updated words of matching tuples. */
OpStream
updateCore(const Database &db, Database::TableId tid, unsigned f10,
           Range r, Matches matches, std::vector<unsigned> words)
{
    co_yield ops::scanFieldWord(db, tid, f10, r.lo, r.hi,
                                kCompareCycles);
    const std::vector<std::uint64_t> hit =
        matchedIn(*matches, r.lo, r.hi);
    for (const unsigned w : words)
        co_yield ops::storeFieldWord(db, tid, hit, w);
}

} // namespace

const std::vector<QuerySpec> &
allQueries()
{
    return specs;
}

const QuerySpec &
querySpec(QueryId id)
{
    for (const QuerySpec &s : specs) {
        if (s.id == id)
            return s;
    }
    rcnvm_panic("unknown query id");
}

std::uint64_t
CompiledQuery::totalOps() const
{
    std::uint64_t n = 0;
    for (const auto &phase : phases) {
        for (const auto &plan : phase)
            n += plan.size();
    }
    return n;
}

PlacedDatabase
QueryWorkload::place(mem::DeviceKind kind, const mem::AddressMap &map,
                     ChunkLayout rc_layout) const
{
    PlacedDatabase pd;
    pd.db = std::make_unique<Database>(kind, map);
    const ChunkLayout layout = pd.db->columnCapable()
                                   ? rc_layout
                                   : ChunkLayout::RowOriented;
    pd.a = pd.db->addTable(tables_->a.get(), layout);
    pd.b = pd.db->addTable(tables_->b.get(), layout);
    pd.c = pd.db->addTable(tables_->c.get(), layout);
    // The hash region is scratch memory: classical row layout.
    pd.hash = pd.db->addTable(tables_->hash.get(),
                              ChunkLayout::RowOriented);
    return pd;
}

QueryStreams
QueryWorkload::compileSelect(const PlacedDatabase &pd,
                             Database::TableId tid,
                             unsigned pred_word, double sel,
                             unsigned out_w0, unsigned out_w1,
                             unsigned cores) const
{
    const Database &db = *pd.db;
    const imdb::Table &table = db.table(tid);
    const std::uint64_t n = table.tuples();
    const auto matches = std::make_shared<const std::vector<bool>>(
        table.matchGreater(pred_word, table.thresholdForGreater(sel)));
    const std::uint64_t match_count = countMatches(*matches);

    // Access-path choice: (a) predicate column scan plus per-match
    // fetches, (b) a full scan of every field in the layout's
    // buffer-friendly order (column scans on a column-oriented
    // placement), or (c) one sequential physical scan.
    const unsigned tw = table.schema().tupleWords();
    const std::uint64_t pred_lines =
        db.fieldScanLineCount(tid, pred_word, 0, n);
    const std::uint64_t fetch_lines =
        match_count *
        util::divCeil(std::uint64_t{out_w1 - out_w0} * 8 + 8, 64);
    const std::uint64_t all_field_lines = pred_lines * tw;
    const std::uint64_t full_lines = db.physicalScanLineCount(tid);

    QueryStreams q;
    if (pred_lines + fetch_lines <=
        std::min(all_field_lines, full_lines)) {
        q.phases.push_back(perCore(cores, [&](unsigned c) {
            return selectFetchCore(db, tid, pred_word,
                                   corePartition(n, cores, c), matches,
                                   out_w0, out_w1);
        }));
    } else if (all_field_lines <= full_lines) {
        // Scan every field column (set-oriented full-table read).
        q.phases.push_back(perCore(cores, [&](unsigned c) {
            return selectAllFieldsCore(db, tid, pred_word,
                                       corePartition(n, cores, c));
        }));
    } else {
        // Full scan: partition the physical line sequence.
        const std::uint64_t per = util::divCeil(full_lines, cores);
        q.phases.push_back(perCore(cores, [&](unsigned c) {
            const std::uint64_t lo = std::min<std::uint64_t>(
                full_lines, std::uint64_t{c} * per);
            const std::uint64_t hi =
                std::min<std::uint64_t>(full_lines, lo + per);
            return ops::physicalScan(db, tid, lo, hi, false,
                                     kCompareCycles * 2);
        }));
    }
    return q;
}

QueryStreams
QueryWorkload::compileAggregate(const PlacedDatabase &pd,
                                Database::TableId tid,
                                unsigned pred_word, double sel,
                                unsigned agg_word,
                                unsigned cores) const
{
    const Database &db = *pd.db;
    const imdb::Table &table = db.table(tid);
    const std::uint64_t n = table.tuples();
    const auto matches = std::make_shared<const std::vector<bool>>(
        table.matchGreater(pred_word, table.thresholdForGreater(sel)));
    const std::uint64_t match_count = countMatches(*matches);
    const bool scan_agg_column =
        db.fieldScanLineCount(tid, agg_word, 0, n) <= match_count;

    QueryStreams q;
    q.phases.push_back(perCore(cores, [&](unsigned c) {
        return aggregateCore(db, tid, pred_word, agg_word,
                             corePartition(n, cores, c),
                             scan_agg_column, matches);
    }));
    return q;
}

QueryStreams
QueryWorkload::compileTwoPredicate(const PlacedDatabase &pd,
                                   unsigned pred1, unsigned pred2,
                                   double sel1, double sel2,
                                   unsigned cores) const
{
    const Database &db = *pd.db;
    const Database::TableId tid = pd.a;
    const imdb::Table &table = db.table(tid);
    const std::uint64_t n = table.tuples();
    const auto m1 = table.matchGreater(
        pred1, table.thresholdForGreater(sel1));
    const auto m2 = table.matchLess(
        pred2,
        static_cast<std::int64_t>(
            static_cast<double>(imdb::Table::valueRange) * sel2));
    auto both = std::make_shared<std::vector<bool>>(n);
    for (std::uint64_t t = 0; t < n; ++t)
        (*both)[t] = m1[t] && m2[t];

    QueryStreams q;
    q.phases.push_back(perCore(cores, [&](unsigned c) {
        return twoPredicateCore(db, tid, pred1, pred2,
                                corePartition(n, cores, c), both);
    }));
    return q;
}

QueryStreams
QueryWorkload::compileJoin(const PlacedDatabase &pd,
                           bool with_f1_filter, unsigned cores) const
{
    const Database &db = *pd.db;
    const imdb::Table &ta = db.table(pd.a);
    const imdb::Table &tb = db.table(pd.b);
    const std::uint64_t na = ta.tuples();
    const std::uint64_t nb = tb.tuples();
    const unsigned f9 = 8, f1 = 0;

    // Host-side equi-join on f9 (the simulated machine replays only
    // the memory behaviour of build, probe, and fetch).
    std::unordered_multimap<std::int64_t, std::uint64_t> index;
    index.reserve(na);
    for (std::uint64_t t = 0; t < na; ++t)
        index.emplace(ta.value(f9, t), t);

    auto match_a = std::make_shared<std::vector<bool>>(na, false);
    auto match_b = std::make_shared<std::vector<bool>>(nb, false);
    std::uint64_t pairs = 0;
    for (std::uint64_t t = 0; t < nb; ++t) {
        auto [it, end] = index.equal_range(tb.value(f9, t));
        for (; it != end; ++it) {
            if (with_f1_filter &&
                !(ta.value(f1, it->second) > tb.value(f1, t))) {
                continue;
            }
            (*match_a)[it->second] = true;
            (*match_b)[t] = true;
            ++pairs;
        }
    }

    QueryStreams q;
    // Phase 1: build - scan a.f9 (and a.f1 for the filter payload),
    // insert into the hash region.
    q.phases.push_back(perCore(cores, [&](unsigned c) {
        return joinSideCore(db, pd.a, pd.hash, with_f1_filter, true,
                            corePartition(na, cores, c));
    }));
    // Phase 2: probe - scan b.f9 (and b.f1), look up the hash region.
    q.phases.push_back(perCore(cores, [&](unsigned c) {
        return joinSideCore(db, pd.b, pd.hash, with_f1_filter, false,
                            corePartition(nb, cores, c));
    }));
    // Phase 3: fetch outputs - a.f3 and b.f4 of matched tuples.
    const std::uint64_t pair_compute =
        pairs * kMaterializeCycles / std::max(1u, cores);
    q.phases.push_back(perCore(cores, [&](unsigned c) {
        return joinFetchCore(db, pd.a, pd.b, corePartition(na, cores, c),
                             corePartition(nb, cores, c), match_a,
                             match_b, pair_compute);
    }));
    return q;
}

QueryStreams
QueryWorkload::compileUpdate(const PlacedDatabase &pd, double band,
                             const std::vector<unsigned> &words,
                             unsigned cores) const
{
    const Database &db = *pd.db;
    const Database::TableId tid = pd.b;
    const imdb::Table &table = db.table(tid);
    const std::uint64_t n = table.tuples();
    const unsigned f10 = 9;

    // Equality over a value band of the requested selectivity
    // (exact equality on a 100000-value domain matches almost
    // nothing at this scale).
    const std::int64_t z0 = imdb::Table::valueRange / 3;
    const std::int64_t z1 =
        z0 + static_cast<std::int64_t>(
                 band * static_cast<double>(imdb::Table::valueRange));
    auto matches = std::make_shared<std::vector<bool>>(n);
    for (std::uint64_t t = 0; t < n; ++t) {
        const std::int64_t v = table.value(f10, t);
        (*matches)[t] = v >= z0 && v < z1;
    }

    QueryStreams q;
    q.phases.push_back(perCore(cores, [&](unsigned c) {
        return updateCore(db, tid, f10, corePartition(n, cores, c),
                          matches, words);
    }));
    return q;
}

QueryStreams
QueryWorkload::compileOrdered(const PlacedDatabase &pd,
                              Database::TableId tid,
                              const std::vector<unsigned> &words,
                              unsigned group_lines,
                              unsigned cores) const
{
    const Database &db = *pd.db;
    const std::uint64_t n = db.table(tid).tuples();
    QueryStreams q;
    q.phases.push_back(perCore(cores, [&](unsigned c) {
        const Range r = corePartition(n, cores, c);
        return ops::orderedMultiColumnScan(db, tid, words, r.lo, r.hi,
                                           group_lines,
                                           kMaterializeCycles);
    }));
    return q;
}

CompiledQuery
QueryWorkload::compile(QueryId id, const PlacedDatabase &pd,
                       unsigned cores, unsigned group_lines) const
{
    QueryStreams streams = stream(id, pd, cores, group_lines);
    CompiledQuery q;
    for (std::vector<OpStream> &phase : streams.phases) {
        std::vector<cpu::AccessPlan> &plans = q.phases.emplace_back();
        for (OpStream &s : phase)
            plans.push_back(cpu::drain(std::move(s)));
    }
    return q;
}

QueryStreams
QueryWorkload::stream(QueryId id, const PlacedDatabase &pd,
                      unsigned cores, unsigned group_lines) const
{
    const unsigned group =
        group_lines == kDefaultGroup ? kGroupLines : group_lines;
    const unsigned f10 = 9, f9 = 8, f1 = 0;
    const imdb::Table &tb = *tables_->b;
    switch (id) {
      case QueryId::Q1:
        return compileSelect(pd, pd.a, f10, kQ1Sel, 2, 4,
                             cores);
      case QueryId::Q2:
        return compileSelect(pd, pd.b, f10, kQ2Sel, 0,
                             tb.schema().tupleWords(), cores);
      case QueryId::Q3:
        return compileSelect(pd, pd.b, f10, kQ3Sel, 0,
                             tb.schema().tupleWords(), cores);
      case QueryId::Q4:
        return compileAggregate(pd, pd.a, f10, kQ4Sel, f9,
                                cores);
      case QueryId::Q5:
        return compileAggregate(pd, pd.b, f10, kQ5Sel, f9,
                                cores);
      case QueryId::Q6:
        return compileAggregate(pd, pd.a, f10, kQ6Sel, f1,
                                cores);
      case QueryId::Q7:
        return compileAggregate(pd, pd.b, f10, kQ7Sel, f1,
                                cores);
      case QueryId::Q8:
        return compileJoin(pd, true, cores);
      case QueryId::Q9:
        return compileJoin(pd, false, cores);
      case QueryId::Q10:
        return compileTwoPredicate(pd, f1, f9, kQ10Sel,
                                   kQ10Sel, cores);
      case QueryId::Q11:
        return compileTwoPredicate(pd, f1, 1, kQ11Sel,
                                   kQ11Sel, cores);
      case QueryId::Q12:
        return compileUpdate(pd, kQ12Band, {2, 3}, cores);
      case QueryId::Q13:
        return compileUpdate(pd, kQ13Band, {f9}, cores);
      case QueryId::Q14:
        return compileOrdered(pd, pd.c, {1, 2, 3, 4}, group, cores);
      case QueryId::Q15:
        return compileOrdered(pd, pd.a, {2, 5, 9}, group, cores);
    }
    rcnvm_panic("unknown query id");
}

} // namespace rcnvm::workload
