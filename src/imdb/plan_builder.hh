/**
 * @file
 * Compiler primitives that translate relational operators into
 * per-core operation streams, including the paper's access-path
 * choices (row vs. column vs. gathered) and the group-caching
 * transform.
 */

#ifndef RCNVM_IMDB_PLAN_BUILDER_HH_
#define RCNVM_IMDB_PLAN_BUILDER_HH_

#include <cstdint>
#include <vector>

#include "cpu/op_source.hh"
#include "imdb/database.hh"

namespace rcnvm::imdb {

// CPU cost constants (cycles) used by the query compiler.
inline constexpr unsigned kCompareCycles = 1;     //!< predicate per value
inline constexpr unsigned kAggregateCycles = 1;   //!< SUM/AVG per value
inline constexpr unsigned kMaterializeCycles = 2; //!< output tuple
inline constexpr unsigned kHashCycles = 6;        //!< hash insert/probe

/**
 * The compiler primitives as coroutine generators: each returns the
 * operation stream of one relational primitive on one core, produced
 * only as its consumer pulls (a core through StreamOpSource, or
 * cpu::drain into a plan). The generator copies every argument into
 * its frame except the database, which must outlive the stream
 * (DESIGN.md section 4l).
 */
namespace ops {

/** @p cycles of CPU work, split into 32-bit compute ops. */
cpu::OpStream compute(std::uint64_t cycles);

/**
 * Each line access (load/cload, or a line store/cstore when
 * @p write), followed by @p compute_per_line cycles of work.
 */
cpu::OpStream emitLines(std::vector<LineRef> lines, bool write,
                        unsigned compute_per_line);

/**
 * Lines [lo, hi) of the table's whole-table physical scan
 * (Database::physicalScan), each followed by @p compute_per_line
 * cycles of work: one core's share of a sequential full scan.
 */
cpu::OpStream physicalScan(const Database &db, Database::TableId id,
                           std::uint64_t lo, std::uint64_t hi,
                           bool write, unsigned compute_per_line);

/**
 * Scan field word @p w of tuples [t0, t1) using the placement's
 * best order-insensitive sequence, with @p compute_per_value
 * cycles consumed per value. Uses GS-DRAM gathers when the
 * device and table allow it.
 */
cpu::OpStream scanFieldWord(const Database &db, Database::TableId id,
                            unsigned w, std::uint64_t t0,
                            std::uint64_t t1,
                            unsigned compute_per_value);

/**
 * Fetch words [w0, w1) of each listed tuple (row-oriented tuple
 * materialisation), @p compute_per_tuple cycles each. Lines
 * shared by adjacent listed tuples are emitted once.
 */
cpu::OpStream fetchTuples(const Database &db, Database::TableId id,
                          std::vector<std::uint64_t> tuples, unsigned w0,
                          unsigned w1, unsigned compute_per_tuple);

/**
 * Fetch words [w0, w1) of the listed tuples choosing the best
 * access path: per-tuple row fetches when matches are sparse,
 * or column-line reads of each output word covering the
 * matched 8-tuple groups when matches are dense enough that
 * column-buffer locality wins (the Figure-12 trade-off).
 */
cpu::OpStream fetchTuplesBest(const Database &db, Database::TableId id,
                              std::vector<std::uint64_t> tuples,
                              unsigned w0, unsigned w1,
                              unsigned compute_per_tuple);

/**
 * Store 8-byte field word @p w of each listed tuple. On
 * column-capable devices with column-oriented layout the store
 * uses the column address space (cstore), keeping the write in
 * the same space as the surrounding scan.
 */
cpu::OpStream storeFieldWord(const Database &db, Database::TableId id,
                             std::vector<std::uint64_t> tuples,
                             unsigned w);

/**
 * Hash-table access: read or write the key word of each listed
 * slot with @p compute_each cycles of hashing per access. Hash
 * regions are row-store tables, so this is always row-oriented.
 */
cpu::OpStream hashAccess(const Database &db, Database::TableId hash_id,
                         std::vector<std::uint64_t> slots, bool write,
                         unsigned compute_each);

/**
 * The Sec.-5 ordered multi-column scan: read the given field
 * words of every tuple in [t0, t1) in strict tuple order.
 *
 * With @p group_lines == 0 the accesses interleave across the
 * field columns per 8-tuple group (the column-buffer-thrashing
 * baseline). With @p group_lines == K > 0, the group-caching
 * transform prefetches K lines per field column, pins them in
 * the LLC, consumes them from cache, and unpins.
 */
cpu::OpStream orderedMultiColumnScan(const Database &db,
                                     Database::TableId id,
                                     std::vector<unsigned> words,
                                     std::uint64_t t0, std::uint64_t t1,
                                     unsigned group_lines,
                                     unsigned compute_per_tuple);

} // namespace ops

} // namespace rcnvm::imdb

#endif // RCNVM_IMDB_PLAN_BUILDER_HH_
