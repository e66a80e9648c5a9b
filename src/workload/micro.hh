/**
 * @file
 * The eight Fig-17 micro-benchmarks: {row, column} x {read, write}
 * scans of a table stored with the L1 (row-oriented) or L2
 * (column-oriented) intra-chunk layout.
 */

#ifndef RCNVM_WORKLOAD_MICRO_HH_
#define RCNVM_WORKLOAD_MICRO_HH_

#include <string>
#include <vector>

#include "cpu/op_source.hh"
#include "imdb/database.hh"

namespace rcnvm::workload {

/** The scan direction and operation of one micro-benchmark. */
enum class MicroBench {
    RowRead,  //!< scan every tuple, reading all fields
    RowWrite, //!< scan every tuple, writing all fields
    ColRead,  //!< scan field by field across all tuples
    ColWrite, //!< write field by field across all tuples
};

/** Printable name ("row-read", ...). */
const char *toString(MicroBench mb);

/**
 * Compile a micro-benchmark against a placed table to one operation
 * stream per core, partitioned over @p cores. Row scans follow the
 * physical layout sequentially; column scans visit one field at a
 * time using the device's best field-scan access path. The database
 * must outlive the streams.
 */
std::vector<cpu::OpStream>
streamMicro(const imdb::Database &db, imdb::Database::TableId tid,
            MicroBench mb, unsigned cores);

} // namespace rcnvm::workload

#endif // RCNVM_WORKLOAD_MICRO_HH_
