/**
 * @file
 * An in-memory table: schema, cardinality, and synthetic contents
 * for the numeric fields referenced by predicates.
 */

#ifndef RCNVM_IMDB_TABLE_HH_
#define RCNVM_IMDB_TABLE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "imdb/schema.hh"
#include "util/random.hh"

namespace rcnvm::imdb {

/**
 * Table metadata plus generated values. Only 8-byte fields carry
 * values (wide fields are opaque payloads); values are uniform in
 * [0, valueRange) so predicate selectivity can be dialled by
 * choosing thresholds. The generator is the only writer, so the host
 * keeps each value in 4 bytes; the simulated field stays 8 bytes
 * wide.
 */
class Table
{
  public:
    /** Value domain used by the generator. */
    static constexpr std::int64_t valueRange = 100000;

    /** Tuples summarised by one chunk-statistics entry. Matches
     *  Database::chunkTuples so a pruned statistics chunk maps onto
     *  exactly one placed chunk of the bin packer. */
    static constexpr unsigned chunkTuples = 1024;

    /** Min/max summary of one field over one chunk of tuples. */
    struct ChunkMinMax {
        std::int64_t min = 0;
        std::int64_t max = 0;
    };

    /**
     * @param name    table name ("table-a", ...)
     * @param schema  field layout
     * @param tuples  cardinality
     * @param seed    RNG seed for deterministic contents
     */
    Table(std::string name, Schema schema, std::uint64_t tuples,
          std::uint64_t seed);

    const std::string &name() const { return name_; }
    const Schema &schema() const { return schema_; }
    std::uint64_t tuples() const { return tuples_; }

    /** Value of 8-byte field @p f in tuple @p t. */
    std::int64_t value(unsigned f, std::uint64_t t) const;

    /** Number of chunk-statistics entries per field. */
    unsigned chunkCount() const;

    /**
     * Min/max of 8-byte field @p f over chunk @p chunk (tuples
     * [chunk * chunkTuples, min((chunk+1) * chunkTuples, tuples))).
     * The plan optimizer consults these to skip chunks no tuple of
     * which can satisfy a scan predicate.
     */
    ChunkMinMax chunkStats(unsigned f, unsigned chunk) const;

    /**
     * Threshold x such that roughly @p selectivity of tuples
     * satisfy value > x (uniform distribution inverse).
     */
    std::int64_t thresholdForGreater(double selectivity) const;

    /**
     * Evaluate `field > x` for every tuple.
     * @return match bitmap indexed by tuple
     */
    std::vector<bool> matchGreater(unsigned f, std::int64_t x) const;

    /** Evaluate `field < x` for every tuple. */
    std::vector<bool> matchLess(unsigned f, std::int64_t x) const;

    /** Evaluate `field == x` for every tuple. */
    std::vector<bool> matchEqual(unsigned f, std::int64_t x) const;

  private:
    std::string name_;
    Schema schema_;
    std::uint64_t tuples_;
    /** Host copy of one generated column. */
    using Column = std::vector<std::int32_t>;
    static_assert(valueRange - 1 <= INT32_MAX,
                  "generated values must fit a Column entry");

    /** columns_[field][tuple]; empty for wide fields. */
    std::vector<Column> columns_;
    /** chunkStats_[field][chunk]; empty for wide fields. */
    std::vector<std::vector<ChunkMinMax>> chunkStats_;
};

} // namespace rcnvm::imdb

#endif // RCNVM_IMDB_TABLE_HH_
