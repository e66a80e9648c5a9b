#include "imdb/plan_builder.hh"

#include <algorithm>

#include "util/bitfield.hh"

namespace rcnvm::imdb {

using cpu::MemOp;
using cpu::OpKind;
using cpu::OpStream;

namespace {

/** One 64-byte line access: load/cload, or a line store/cstore. */
MemOp
lineOp(const LineRef &line, bool write)
{
    if (line.orient == Orientation::Column) {
        return write ? MemOp::cstore(line.addr, 64)
                     : MemOp::cload(line.addr, 64);
    }
    return write ? MemOp{OpKind::Store, line.addr, 64, 0}
                 : MemOp::load(line.addr, 64);
}

} // namespace

namespace ops {

OpStream
compute(std::uint64_t cycles)
{
    while (cycles > 0) {
        const std::uint32_t step = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(cycles, 0xffffffffull));
        co_yield MemOp::compute(step);
        cycles -= step;
    }
}

OpStream
emitLines(std::vector<LineRef> lines, bool write,
          unsigned compute_per_line)
{
    for (const LineRef &line : lines) {
        co_yield lineOp(line, write);
        if (compute_per_line > 0)
            co_yield MemOp::compute(compute_per_line);
    }
}

OpStream
physicalScan(const Database &db, Database::TableId id, std::uint64_t lo,
             std::uint64_t hi, bool write, unsigned compute_per_line)
{
    util::Generator<LineRef> lines = db.physicalScan(id, lo, hi);
    while (const LineRef *line = lines.next()) {
        co_yield lineOp(*line, write);
        if (compute_per_line > 0)
            co_yield MemOp::compute(compute_per_line);
    }
}

OpStream
scanFieldWord(const Database &db, Database::TableId id, unsigned w,
              std::uint64_t t0, std::uint64_t t1,
              unsigned compute_per_value)
{
    if (t0 >= t1)
        co_return;

    if (db.gatherable(id, w)) {
        // GS-DRAM: one gathered access per 8 tuples.
        std::uint64_t t = t0;
        for (; t + 8 <= t1; t += 8) {
            co_yield MemOp::gload(db.wordAddr(id, t, w, Orientation::Row));
            if (compute_per_value > 0)
                co_yield MemOp::compute(8 * compute_per_value);
        }
        for (; t < t1; ++t) {
            co_yield MemOp::load(db.wordAddr(id, t, w, Orientation::Row),
                                 64);
            if (compute_per_value > 0)
                co_yield MemOp::compute(compute_per_value);
        }
        co_return;
    }

    std::vector<LineRef> lines;
    db.fieldScanLines(id, w, t0, t1, lines);
    if (lines.empty())
        co_return;
    const std::uint64_t values = t1 - t0;
    const unsigned per_line = static_cast<unsigned>(std::max<std::uint64_t>(
        1, values / lines.size()));
    const unsigned compute_per_line = per_line * compute_per_value;
    for (const LineRef &line : lines) {
        co_yield lineOp(line, false);
        if (compute_per_line > 0)
            co_yield MemOp::compute(compute_per_line);
    }
}

OpStream
fetchTuples(const Database &db, Database::TableId id,
            std::vector<std::uint64_t> tuples, unsigned w0, unsigned w1,
            unsigned compute_per_tuple)
{
    std::vector<LineRef> lines;
    LineRef last{~Addr{0}, Orientation::Row};
    for (const std::uint64_t t : tuples) {
        lines.clear();
        db.tupleLines(id, t, w0, w1, lines);
        for (const LineRef &line : lines) {
            if (line == last)
                continue; // adjacent tuples sharing a line
            co_yield lineOp(line, false);
            last = line;
        }
        if (compute_per_tuple > 0)
            co_yield MemOp::compute(compute_per_tuple);
    }
}

OpStream
fetchTuplesBest(const Database &db, Database::TableId id,
                std::vector<std::uint64_t> tuples, unsigned w0,
                unsigned w1, unsigned compute_per_tuple)
{
    if (tuples.empty())
        co_return;

    // Columnar fetch needs the tuple-axis line primitive. GS-DRAM
    // cannot help here: its gather patterns describe uniform strides
    // configured ahead of a scan, not the irregular tuple groups a
    // predicate selects (the paper's flexibility criticism).
    LineRef probe;
    const bool columnar =
        db.fieldLine(id, tuples.front() & ~std::uint64_t{7}, w0, probe);
    if (!columnar) {
        co_yield fetchTuples(db, id, std::move(tuples), w0, w1,
                             compute_per_tuple);
        co_return;
    }

    // Count the distinct 8-tuple groups the matches cover.
    std::uint64_t groups = 0;
    std::uint64_t last_group = ~std::uint64_t{0};
    for (const std::uint64_t t : tuples) {
        const std::uint64_t g = t / 8;
        if (g != last_group) {
            ++groups;
            last_group = g;
        }
    }

    // Row fetches pay buffer conflicts on scattered rows; column
    // reads stream within open column buffers. Weight row lines
    // accordingly (conflict ~1.3x a pipelined buffer hit); sparse
    // matches therefore keep the paper's Figure-12 row-access plan
    // while dense outputs (joins, high selectivity) go columnar.
    const unsigned words = w1 - w0;
    const std::uint64_t row_cost =
        13 * tuples.size() *
        util::divCeil(std::uint64_t{words} * 8 + 8, 64) / 10;
    const std::uint64_t col_cost = groups * words;
    if (row_cost < col_cost) {
        co_yield fetchTuples(db, id, std::move(tuples), w0, w1,
                             compute_per_tuple);
        co_return;
    }

    last_group = ~std::uint64_t{0};
    for (const std::uint64_t t : tuples) {
        const std::uint64_t g = t / 8;
        if (g != last_group) {
            for (unsigned w = w0; w < w1; ++w) {
                LineRef line;
                db.fieldLine(id, g * 8, w, line);
                co_yield lineOp(line, false);
            }
            last_group = g;
        }
        if (compute_per_tuple > 0)
            co_yield MemOp::compute(compute_per_tuple);
    }
}

OpStream
storeFieldWord(const Database &db, Database::TableId id,
               std::vector<std::uint64_t> tuples, unsigned w)
{
    const bool column_space =
        db.columnCapable() &&
        db.layout(id) == ChunkLayout::ColumnOriented;
    for (const std::uint64_t t : tuples) {
        if (column_space) {
            co_yield MemOp::cstore(
                db.wordAddr(id, t, w, Orientation::Column), 8);
        } else {
            co_yield MemOp::store(
                db.wordAddr(id, t, w, Orientation::Row), 8);
        }
    }
}

OpStream
hashAccess(const Database &db, Database::TableId hash_id,
           std::vector<std::uint64_t> slots, bool write,
           unsigned compute_each)
{
    for (const std::uint64_t slot : slots) {
        const Addr a = db.wordAddr(hash_id, slot, 0, Orientation::Row);
        co_yield write ? MemOp::store(a, 8) : MemOp::load(a, 8);
        if (compute_each > 0)
            co_yield MemOp::compute(compute_each);
    }
}

OpStream
orderedMultiColumnScan(const Database &db, Database::TableId id,
                       std::vector<unsigned> words, std::uint64_t t0,
                       std::uint64_t t1, unsigned group_lines,
                       unsigned compute_per_tuple)
{
    if (t0 >= t1 || words.empty())
        co_return;

    // The group-caching transform needs each (8-tuple group, field
    // word) pair to map to a single cache line along the tuple
    // axis, which holds exactly for column-oriented chunks.
    LineRef probe;
    const bool columnar =
        db.fieldLine(id, t0 & ~std::uint64_t{7}, words.front(), probe);
    if (!columnar) {
        // Ordered access without column support degenerates to
        // per-tuple row fetches over the word span.
        const unsigned lo = *std::min_element(words.begin(), words.end());
        const unsigned hi = *std::max_element(words.begin(), words.end());
        std::vector<std::uint64_t> all;
        all.reserve(static_cast<std::size_t>(t1 - t0));
        for (std::uint64_t t = t0; t < t1; ++t)
            all.push_back(t);
        co_yield fetchTuples(db, id, std::move(all), lo, hi + 1,
                             compute_per_tuple);
        co_return;
    }

    // Column-oriented layout: each field word is one physical
    // column; strict tuple order makes naive accesses ping-pong
    // between column buffers. Group caching prefetches K lines per
    // column into the pinned LLC and consumes from cache; batches
    // are double-buffered so batch k+1's prefetch overlaps batch
    // k's consumption and the memory bus never idles.
    struct Batch {
        std::uint64_t b, e;
    };
    std::vector<Batch> batches;
    const std::uint64_t chunk = Database::chunkTuples;
    for (std::uint64_t base = t0; base < t1;) {
        const std::uint64_t chunk_end =
            std::min(t1, (base / chunk + 1) * chunk);
        const std::uint64_t batch_tuples =
            group_lines > 0 ? std::uint64_t{group_lines} * 8
                            : chunk_end - base;
        for (std::uint64_t b = base; b < chunk_end; b += batch_tuples)
            batches.push_back(
                Batch{b, std::min(chunk_end, b + batch_tuples)});
        base = chunk_end;
    }

    const auto prefetch_ops = [&](const Batch &batch,
                                  cpu::AccessPlan &out) {
        for (const unsigned w : words) {
            for (std::uint64_t g = batch.b; g < batch.e; g += 8) {
                LineRef line;
                db.fieldLine(id, g, w, line);
                out.push_back(MemOp::cprefetch(line.addr, line.orient));
            }
        }
    };

    const auto pin_ops = [&](const Batch &batch, bool pin,
                             cpu::AccessPlan &out) {
        for (const unsigned w : words) {
            LineRef line;
            db.fieldLine(id, batch.b, w, line);
            const auto bytes =
                static_cast<std::uint32_t>((batch.e - batch.b) * 8);
            out.push_back(pin ? MemOp::pin(line.addr, bytes, line.orient)
                              : MemOp::unpin(line.addr, bytes,
                                             line.orient));
        }
    };

    const auto consume_ops = [&](const Batch &batch,
                                 cpu::AccessPlan &out) {
        for (std::uint64_t g = batch.b; g < batch.e; g += 8) {
            for (const unsigned w : words) {
                LineRef line;
                db.fieldLine(id, g, w, line);
                out.push_back(lineOp(line, false));
            }
            const std::uint64_t n = std::min<std::uint64_t>(8, batch.e - g);
            if (compute_per_tuple > 0)
                out.push_back(MemOp::compute(
                    static_cast<std::uint32_t>(n * compute_per_tuple)));
        }
    };

    // One batch's operations at a time: a lambda cannot co_yield, so
    // each step fills this buffer and the loop below yields it.
    cpu::AccessPlan step;
    if (group_lines == 0) {
        // Baseline: strict-order consumption straight from memory.
        for (const Batch &batch : batches) {
            step.clear();
            consume_ops(batch, step);
            for (const MemOp &op : step)
                co_yield op;
        }
        co_return;
    }

    cpu::AccessPlan consume, next_prefetch;
    for (std::size_t k = 0; k < batches.size(); ++k) {
        step.clear();
        if (k == 0) {
            // Startup: prefetch the first batch unpipelined.
            prefetch_ops(batches[0], step);
            step.push_back(MemOp::fence());
            pin_ops(batches[0], true, step);
        }
        consume.clear();
        next_prefetch.clear();
        consume_ops(batches[k], consume);
        if (k + 1 < batches.size())
            prefetch_ops(batches[k + 1], next_prefetch);

        // Interleave: cached reads stream while the next batch's
        // prefetches keep the memory bus busy.
        std::size_t ci = 0, pi = 0;
        while (ci < consume.size() || pi < next_prefetch.size()) {
            if (ci < consume.size())
                step.push_back(consume[ci++]);
            if (pi < next_prefetch.size())
                step.push_back(next_prefetch[pi++]);
        }

        pin_ops(batches[k], false, step); // unpin the consumed batch
        if (k + 1 < batches.size()) {
            // The next batch's prefetch must have landed.
            step.push_back(MemOp::fence());
            pin_ops(batches[k + 1], true, step);
        }
        for (const MemOp &op : step)
            co_yield op;
    }
}

} // namespace ops

} // namespace rcnvm::imdb
