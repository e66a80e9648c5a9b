/**
 * @file
 * The Table-2 benchmark queries Q1-Q15 and their compilation to
 * per-core, per-phase operation streams on a placed database.
 */

#ifndef RCNVM_WORKLOAD_QUERIES_HH_
#define RCNVM_WORKLOAD_QUERIES_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/mem_op.hh"
#include "cpu/op_source.hh"
#include "imdb/database.hh"
#include "workload/tables.hh"

namespace rcnvm::workload {

/** The fifteen benchmark queries of Table 2. */
enum class QueryId {
    Q1, Q2, Q3, Q4, Q5, Q6, Q7, Q8, Q9, Q10, Q11, Q12, Q13, Q14, Q15,
};

/** Queries the engine compiles: all of Table 2 (Q1-Q15). */
inline constexpr unsigned kQueryCount = 15;

/**
 * Length of the timed SQL suite (Q1-Q13): the execution-time,
 * LLC-miss, buffer-miss, coherence, sensitivity, and energy benches
 * all run this prefix of Table 2. Q14/Q15 are the group-caching
 * studies (Figure 23) and are excluded from the timed suite.
 */
inline constexpr unsigned kTimedQueryCount = 13;

/** Static description of one query. */
struct QuerySpec {
    QueryId id;
    const char *name;
    const char *sql;
    const char *category; //!< OLTP / OLAP / OLXP / group-caching
};

/** All query specs in Table-2 order. */
const std::vector<QuerySpec> &allQueries();

/** Spec for one query id. */
const QuerySpec &querySpec(QueryId id);

/**
 * A query compiled to operation streams: phases executed
 * sequentially, each phase holding one lazily generated stream per
 * core (cpu::StreamOpSource replays one). Multi-phase queries are
 * the hash joins (build must complete before probe). The streams
 * read the PlacedDatabase they were compiled against, which must
 * outlive them.
 */
struct QueryStreams {
    std::vector<std::vector<cpu::OpStream>> phases;
};

/**
 * A compiled query drained into plans, for callers that need the
 * list (traced replay, trace dumps, tests): the same phases and
 * operations as QueryStreams.
 */
struct CompiledQuery {
    std::vector<std::vector<cpu::AccessPlan>> phases;

    /** Total operations across all phases and cores. */
    std::uint64_t totalOps() const;
};

/**
 * A database instance for one device, holding the benchmark tables.
 */
struct PlacedDatabase {
    std::unique_ptr<imdb::Database> db;
    imdb::Database::TableId a = 0;
    imdb::Database::TableId b = 0;
    imdb::Database::TableId c = 0;
    imdb::Database::TableId hash = 0;
};

/**
 * Compiles Table-2 queries against a TableSet placed on a device.
 *
 * Host-side work (predicate bitmaps, join matching, hash slots) is
 * evaluated here from the synthetic table contents so plans reflect
 * real selectivities; the simulated machine then replays only the
 * memory behaviour.
 */
class QueryWorkload
{
  public:
    /** Compile against @p tables with the Table-2 selectivities. */
    explicit QueryWorkload(const TableSet &tables) : tables_(&tables) {}

    /**
     * Place the benchmark tables on a device. RC-NVM uses the given
     * intra-chunk layout for the relational tables; row-only
     * devices always use the classical row-store layout.
     */
    PlacedDatabase place(mem::DeviceKind kind,
                         const mem::AddressMap &map,
                         imdb::ChunkLayout rc_layout =
                             imdb::ChunkLayout::ColumnOriented) const;

    /**
     * Compile one query to per-core operation streams. The
     * host-side work (predicates, join matching) runs here; each
     * core's operations are generated as its stream is pulled.
     *
     * @param group_lines  Q14/Q15 group-caching lines per column;
     *                     kDefaultGroup keeps the default of 128
     */
    QueryStreams stream(QueryId id, const PlacedDatabase &pd,
                        unsigned cores = 4,
                        unsigned group_lines = kDefaultGroup) const;

    /** stream(), drained into per-core plans. */
    CompiledQuery compile(QueryId id, const PlacedDatabase &pd,
                          unsigned cores = 4,
                          unsigned group_lines = kDefaultGroup) const;

    /** Sentinel for "use the default group-caching size (128)". */
    static constexpr unsigned kDefaultGroup = 0xffffffffu;

  private:
    QueryStreams compileSelect(const PlacedDatabase &pd,
                               imdb::Database::TableId tid,
                               unsigned pred_word, double sel,
                               unsigned out_w0, unsigned out_w1,
                               unsigned cores) const;

    QueryStreams compileAggregate(const PlacedDatabase &pd,
                                  imdb::Database::TableId tid,
                                  unsigned pred_word, double sel,
                                  unsigned agg_word,
                                  unsigned cores) const;

    QueryStreams compileTwoPredicate(const PlacedDatabase &pd,
                                     unsigned pred1, unsigned pred2,
                                     double sel1, double sel2,
                                     unsigned cores) const;

    QueryStreams compileJoin(const PlacedDatabase &pd,
                             bool with_f1_filter,
                             unsigned cores) const;

    QueryStreams compileUpdate(const PlacedDatabase &pd, double band,
                               const std::vector<unsigned> &words,
                               unsigned cores) const;

    QueryStreams compileOrdered(const PlacedDatabase &pd,
                                imdb::Database::TableId tid,
                                const std::vector<unsigned> &words,
                                unsigned group_lines,
                                unsigned cores) const;

    const TableSet *tables_;
};

} // namespace rcnvm::workload

#endif // RCNVM_WORKLOAD_QUERIES_HH_
