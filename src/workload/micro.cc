#include "workload/micro.hh"

#include <algorithm>

#include "imdb/plan_builder.hh"
#include "util/bitfield.hh"

namespace rcnvm::workload {

using imdb::Database;
using imdb::LineRef;

const char *
toString(MicroBench mb)
{
    switch (mb) {
      case MicroBench::RowRead:
        return "row-read";
      case MicroBench::RowWrite:
        return "row-write";
      case MicroBench::ColRead:
        return "col-read";
      case MicroBench::ColWrite:
        return "col-write";
    }
    return "?";
}

namespace {

/** Fields first, first + stride, ... of every tuple, field by
 *  field. */
cpu::OpStream
columnScanCore(const Database &db, Database::TableId tid, unsigned first,
               unsigned stride, bool write)
{
    const unsigned tw = db.table(tid).schema().tupleWords();
    const std::uint64_t n = db.table(tid).tuples();
    for (unsigned w = first; w < tw; w += stride) {
        std::vector<LineRef> lines;
        db.fieldScanLines(tid, w, 0, n, lines);
        co_yield imdb::ops::emitLines(std::move(lines), write, 1);
    }
}

} // namespace

std::vector<cpu::OpStream>
streamMicro(const Database &db, Database::TableId tid, MicroBench mb,
            unsigned cores)
{
    const bool write =
        mb == MicroBench::RowWrite || mb == MicroBench::ColWrite;
    const bool row_scan =
        mb == MicroBench::RowRead || mb == MicroBench::RowWrite;

    std::vector<cpu::OpStream> streams;
    if (row_scan) {
        // Sequential physical scan, lines split contiguously.
        const std::uint64_t lines = db.physicalScanLineCount(tid);
        const std::uint64_t per = util::divCeil(lines, cores);
        for (unsigned c = 0; c < cores; ++c) {
            const std::uint64_t lo =
                std::min<std::uint64_t>(lines, std::uint64_t{c} * per);
            const std::uint64_t hi =
                std::min<std::uint64_t>(lines, lo + per);
            streams.push_back(
                imdb::ops::physicalScan(db, tid, lo, hi, write, 1));
        }
        return streams;
    }

    // Column-direction scan: fields are distributed across cores so
    // each core streams whole fields in field-major order.
    for (unsigned c = 0; c < cores; ++c)
        streams.push_back(columnScanCore(db, tid, c, cores, write));
    return streams;
}

} // namespace rcnvm::workload
