#include "imdb/database.hh"

#include <algorithm>

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace rcnvm::imdb {

using util::divCeil;
using util::log2i;

namespace {

/** Appends the walked lines to a vector. */
struct LineAppender {
    std::vector<LineRef> &out;

    void push(const LineRef &line) { out.push_back(line); }

    /** push() unless @p line repeats the last line. */
    void
    pushNew(const LineRef &line)
    {
        if (out.empty() || !(out.back() == line))
            out.push_back(line);
    }
};

/** Counts the walked lines without storing them. */
struct LineCounter {
    std::uint64_t count = 0;
    LineRef last;

    void
    push(const LineRef &line)
    {
        ++count;
        last = line;
    }

    void
    pushNew(const LineRef &line)
    {
        if (count == 0 || !(last == line))
            push(line);
    }
};

} // namespace

Database::Database(mem::DeviceKind kind, const mem::AddressMap &map,
                   PlacementPolicy policy, bool allow_rotation)
    : kind_(kind),
      map_(map),
      channelBits_(log2i(map.geometry().channels)),
      rankBits_(log2i(map.geometry().ranksPerChannel)),
      bankBits_(log2i(map.geometry().banksPerRank)),
      rowsBits_(log2i(map.geometry().rowsPerSubarray)),
      rowBytesBits_(log2i(map.geometry().rowBytes())),
      wordBits_(log2i(map.geometry().wordBytes)),
      colCapable_(mem::capsFor(kind).columnAccess),
      // Rotation swaps the role of rows and columns inside a chunk,
      // which is only meaningful on a dual-addressable device.
      // Spreading maps consecutive chunks to distinct banks; linear
      // devices already interleave at row-buffer granularity, so
      // the policy only applies to dual-addressable placements.
      spread_(policy == PlacementPolicy::Spread && colCapable_),
      packer_(binSide, allow_rotation && colCapable_)
{
}

Database::TableId
Database::addTable(const Table *table, ChunkLayout layout)
{
    PlacedTable pt;
    pt.table = table;
    pt.layout = layout;

    const unsigned tw = table->schema().tupleWords();
    std::uint64_t remaining = table->tuples();
    std::uint64_t first = 0;
    while (remaining > 0) {
        const unsigned cnt = static_cast<unsigned>(
            std::min<std::uint64_t>(remaining, chunkTuples));

        ChunkPlace cp;
        cp.firstTuple = first;
        cp.tupleCount = cnt;
        if (layout == ChunkLayout::ColumnOriented) {
            cp.rectW = tw;
            cp.rectH = cnt;
        } else {
            const std::uint64_t words = std::uint64_t{cnt} * tw;
            cp.rectW = static_cast<unsigned>(
                std::min<std::uint64_t>(words, binSide));
            cp.rectH = static_cast<unsigned>(
                divCeil(words, cp.rectW));
        }
        pt.chunks.push_back(cp);

        first += cnt;
        remaining -= cnt;
    }

    if (!spread_) {
        for (ChunkPlace &cp : pt.chunks)
            cp.slot = packer_.insert(cp.rectW, cp.rectH);
    } else {
        // Spread placement: chunk i of this table goes to bin
        // base + i / chunksPerBin, so a contiguous chunk range (one
        // core's partition) owns a contiguous - and therefore
        // disjoint - set of banks. Each table opens its own group
        // of one bin per bank; bins of successive groups revisit
        // the same banks in deeper subarrays.
        const mem::Geometry &g = map_.geometry();
        const unsigned banks = g.channels * g.ranksPerChannel *
                               g.banksPerRank;
        const unsigned base = packer_.binsUsed();
        const std::uint64_t nc = pt.chunks.size();
        const std::uint64_t per_bin = divCeil(nc, banks);
        for (std::uint64_t i = 0; i < nc; ++i) {
            ChunkPlace &cp = pt.chunks[static_cast<std::size_t>(i)];
            const unsigned bin =
                base + static_cast<unsigned>(i / per_bin);
            if (auto slot =
                    packer_.insertAt(bin, cp.rectW, cp.rectH)) {
                cp.slot = *slot;
            } else {
                // The directed bin overflowed (giant table):
                // degrade gracefully to first-fit packing.
                util::warn("spread bin ", bin,
                           " overflowed; falling back to packed "
                           "placement for one chunk");
                cp.slot = packer_.insert(cp.rectW, cp.rectH);
            }
        }
    }

    tables_.push_back(std::move(pt));
    return static_cast<TableId>(tables_.size() - 1);
}

const Table &
Database::table(TableId id) const
{
    return *tables_.at(id).table;
}

ChunkLayout
Database::layout(TableId id) const
{
    return tables_.at(id).layout;
}

void
Database::chunkCoord(const PlacedTable &pt, const ChunkPlace &cp,
                     unsigned u, unsigned w, unsigned &r,
                     unsigned &c) const
{
    const unsigned tw = pt.table->schema().tupleWords();
    unsigned rr, cc;
    if (pt.layout == ChunkLayout::ColumnOriented) {
        rr = u;
        cc = w;
    } else {
        const unsigned idx = u * tw + w;
        rr = idx / cp.rectW;
        cc = idx % cp.rectW;
    }
    if (!cp.slot.rotated) {
        r = cp.slot.y + rr;
        c = cp.slot.x + cc;
    } else {
        r = cp.slot.y + cc;
        c = cp.slot.x + rr;
    }
}

std::uint64_t
Database::splitBanks(std::uint64_t n, mem::DecodedAddr &d) const
{
    const mem::Geometry &g = map_.geometry();
    d.channel = static_cast<unsigned>(n & (g.channels - 1));
    n >>= channelBits_;
    d.rank = static_cast<unsigned>(n & (g.ranksPerChannel - 1));
    n >>= rankBits_;
    d.bank = static_cast<unsigned>(n & (g.banksPerRank - 1));
    return n >> bankBits_;
}

Addr
Database::physAddr(unsigned bin, unsigned r, unsigned c,
                   Orientation space) const
{
    // Shifts and masks throughout: every field this splits by is a
    // power of two, and the row-only path runs once per compiled
    // line.
    const mem::Geometry &g = map_.geometry();

    if (colCapable_) {
        mem::DecodedAddr d;
        d.subarray = static_cast<unsigned>(splitBanks(bin, d));
        if (d.subarray >= g.subarraysPerBank)
            rcnvm_fatal("database does not fit: bin ", bin,
                        " exceeds device subarrays");
        d.row = r;
        d.col = c;
        return map_.encode(d, space);
    }

    if (space != Orientation::Row)
        rcnvm_panic("column address requested on a row-only device");

    const std::uint64_t linear =
        std::uint64_t{bin} * binSide * binSide * 8 +
        (std::uint64_t{r} * binSide + c) * 8;
    const std::uint64_t within = linear & (g.rowBytes() - 1);

    mem::DecodedAddr d;
    const std::uint64_t row_linear =
        splitBanks(linear >> rowBytesBits_, d);
    d.subarray = static_cast<unsigned>(row_linear >> rowsBits_);
    d.row = static_cast<unsigned>(row_linear & (g.rowsPerSubarray - 1));
    if (d.subarray >= g.subarraysPerBank)
        rcnvm_fatal("database does not fit on ", toString(kind_));
    d.col = static_cast<unsigned>(within >> wordBits_);
    d.offset = static_cast<unsigned>(within & (g.wordBytes - 1));
    return map_.encode(d, Orientation::Row);
}

Addr
Database::wordAddr(TableId id, std::uint64_t t, unsigned w,
                   Orientation space) const
{
    const PlacedTable &pt = tables_.at(id);
    const std::size_t ci = static_cast<std::size_t>(t / chunkTuples);
    const ChunkPlace &cp = pt.chunks.at(ci);
    unsigned r, c;
    chunkCoord(pt, cp, static_cast<unsigned>(t % chunkTuples), w, r,
               c);
    return physAddr(cp.slot.bin, r, c, space);
}

template <class Sink>
void
Database::emitRowRun(unsigned bin, unsigned r, unsigned c0,
                     unsigned c1, Sink &out) const
{
    for (unsigned c = c0 & ~7u; c <= c1; c += 8) {
        out.push(LineRef{physAddr(bin, r, c, Orientation::Row),
                         Orientation::Row});
    }
}

template <class Sink>
void
Database::emitColRun(unsigned bin, unsigned r0, unsigned r1,
                     unsigned c, Sink &out) const
{
    for (unsigned r = r0 & ~7u; r <= r1; r += 8) {
        out.push(LineRef{physAddr(bin, r, c, Orientation::Column),
                         Orientation::Column});
    }
}

void
Database::fieldScanLines(TableId id, unsigned w, std::uint64_t t0,
                         std::uint64_t t1,
                         std::vector<LineRef> &out) const
{
    LineAppender sink{out};
    walkFieldScan(id, w, t0, t1, sink);
}

std::uint64_t
Database::fieldScanLineCount(TableId id, unsigned w, std::uint64_t t0,
                             std::uint64_t t1) const
{
    LineCounter sink;
    walkFieldScan(id, w, t0, t1, sink);
    return sink.count;
}

template <class Sink>
void
Database::walkFieldScan(TableId id, unsigned w, std::uint64_t t0,
                        std::uint64_t t1, Sink &out) const
{
    if (t0 >= t1)
        return;
    const PlacedTable &pt = tables_.at(id);
    const unsigned tw = pt.table->schema().tupleWords();

    const auto push_line = [&out](Addr addr, Orientation o) {
        out.pushNew(LineRef{util::alignDown(addr, 64), o});
    };

    const std::size_t c_first =
        static_cast<std::size_t>(t0 / chunkTuples);
    const std::size_t c_last =
        static_cast<std::size_t>((t1 - 1) / chunkTuples);

    for (std::size_t ci = c_first; ci <= c_last; ++ci) {
        const ChunkPlace &cp = pt.chunks.at(ci);
        const unsigned u0 = static_cast<unsigned>(
            std::max(t0, cp.firstTuple) - cp.firstTuple);
        const unsigned u1 = static_cast<unsigned>(
            std::min<std::uint64_t>(t1, cp.firstTuple +
                                            cp.tupleCount) -
            cp.firstTuple);
        if (u0 >= u1)
            continue;
        const unsigned bin = cp.slot.bin;
        const unsigned x = cp.slot.x;
        const unsigned y = cp.slot.y;

        if (pt.layout == ChunkLayout::ColumnOriented) {
            if (!cp.slot.rotated) {
                // Field w is physical column x+w, tuples along rows.
                if (colCapable_) {
                    emitColRun(bin, y + u0, y + u1 - 1, x + w,
                               out);
                } else {
                    // Linear image: one strided line per tuple.
                    for (unsigned u = u0; u < u1; ++u) {
                        push_line(physAddr(bin, y + u, x + w,
                                           Orientation::Row),
                                  Orientation::Row);
                    }
                }
            } else {
                // Rotated: field w is physical row y+w, tuples along
                // columns - a sequential row-oriented scan.
                emitRowRun(bin, y + w, x + u0, x + u1 - 1, out);
            }
            continue;
        }

        // RowOriented layout.
        if (!cp.slot.rotated) {
            if (colCapable_ && cp.rectW % tw == 0) {
                // Tuples with equal residue share one physical
                // column; scan each residue column vertically.
                const unsigned per_row = cp.rectW / tw;
                for (unsigned k = 0; k < per_row; ++k) {
                    // Tuples u = m * per_row + k within [u0, u1).
                    unsigned m_lo =
                        u0 > k ? divCeil(u0 - k, per_row) : 0;
                    if (k + m_lo * per_row >= u1)
                        continue;
                    const unsigned m_hi = (u1 - 1 - k) / per_row;
                    const unsigned c = x + k * tw + w;
                    emitColRun(bin, y + m_lo, y + m_hi, c, out);
                }
            } else {
                for (unsigned u = u0; u < u1; ++u) {
                    const unsigned idx = u * tw + w;
                    push_line(physAddr(bin, y + idx / cp.rectW,
                                       x + idx % cp.rectW,
                                       Orientation::Row),
                              Orientation::Row);
                }
            }
        } else {
            // Rotated row layout (dual-addressable devices only):
            // residue columns become residue rows.
            if (cp.rectW % tw == 0) {
                const unsigned per_row = cp.rectW / tw;
                for (unsigned k = 0; k < per_row; ++k) {
                    unsigned m_lo =
                        u0 > k ? divCeil(u0 - k, per_row) : 0;
                    if (k + m_lo * per_row >= u1)
                        continue;
                    const unsigned m_hi = (u1 - 1 - k) / per_row;
                    const unsigned r = y + k * tw + w;
                    emitRowRun(bin, r, x + m_lo, x + m_hi, out);
                }
            } else {
                for (unsigned u = u0; u < u1; ++u) {
                    unsigned r, c;
                    chunkCoord(pt, cp, u, w, r, c);
                    push_line(physAddr(bin, r, c,
                                       Orientation::Column),
                              Orientation::Column);
                }
            }
        }
    }
}

void
Database::tupleLines(TableId id, std::uint64_t t, unsigned w0,
                     unsigned w1, std::vector<LineRef> &out) const
{
    if (w0 >= w1)
        return;
    LineAppender sink{out};
    const PlacedTable &pt = tables_.at(id);
    const unsigned tw = pt.table->schema().tupleWords();
    const std::size_t ci = static_cast<std::size_t>(t / chunkTuples);
    const ChunkPlace &cp = pt.chunks.at(ci);
    const unsigned u = static_cast<unsigned>(t % chunkTuples);
    const unsigned bin = cp.slot.bin;
    const unsigned x = cp.slot.x;
    const unsigned y = cp.slot.y;

    if (pt.layout == ChunkLayout::ColumnOriented) {
        if (!cp.slot.rotated) {
            emitRowRun(bin, y + u, x + w0, x + w1 - 1, sink);
        } else {
            emitColRun(bin, y + w0, y + w1 - 1, x + u, sink);
        }
        return;
    }

    // RowOriented: the words are contiguous in chunk space but may
    // wrap across rect rows; emit one range per rect row touched.
    const unsigned idx0 = u * tw + w0;
    const unsigned idx1 = u * tw + w1 - 1;
    for (unsigned rr = idx0 / cp.rectW; rr <= idx1 / cp.rectW; ++rr) {
        const unsigned lo =
            std::max(idx0, rr * cp.rectW) % cp.rectW;
        const unsigned hi =
            std::min(idx1, rr * cp.rectW + cp.rectW - 1) % cp.rectW;
        if (!cp.slot.rotated) {
            emitRowRun(bin, y + rr, x + lo, x + hi, sink);
        } else {
            emitColRun(bin, y + lo, y + hi, x + rr, sink);
        }
    }
}

bool
Database::fieldLine(TableId id, std::uint64_t t, unsigned w,
                    LineRef &out) const
{
    const PlacedTable &pt = tables_.at(id);
    if (pt.layout != ChunkLayout::ColumnOriented || !colCapable_)
        return false;
    const std::size_t ci = static_cast<std::size_t>(t / chunkTuples);
    const ChunkPlace &cp = pt.chunks.at(ci);
    const unsigned u = static_cast<unsigned>(t % chunkTuples);
    if (!cp.slot.rotated) {
        // Tuples run down physical column x+w.
        const Addr a = physAddr(cp.slot.bin, cp.slot.y + u,
                                cp.slot.x + w, Orientation::Column);
        out = LineRef{util::alignDown(a, 64), Orientation::Column};
    } else {
        // Rotated chunk: tuples run along physical row y+w.
        const Addr a = physAddr(cp.slot.bin, cp.slot.y + w,
                                cp.slot.x + u, Orientation::Row);
        out = LineRef{util::alignDown(a, 64), Orientation::Row};
    }
    return true;
}

std::vector<Database::Segment>
Database::physicalSegments(TableId id) const
{
    const PlacedTable &pt = tables_.at(id);

    // Collect the x-interval each chunk occupies on each (bin, row)
    // it touches, then walk rows in order, draining every interval
    // of a row before moving to the next.
    std::vector<Segment> segments;
    for (const ChunkPlace &cp : pt.chunks) {
        const unsigned w = cp.slot.rotated ? cp.rectH : cp.rectW;
        const unsigned h = cp.slot.rotated ? cp.rectW : cp.rectH;
        for (unsigned rr = 0; rr < h; ++rr) {
            segments.push_back(Segment{cp.slot.bin, cp.slot.y + rr,
                                       cp.slot.x,
                                       cp.slot.x + w - 1});
        }
    }
    std::sort(segments.begin(), segments.end(),
              [](const Segment &a, const Segment &b) {
                  if (a.bin != b.bin)
                      return a.bin < b.bin;
                  if (a.row != b.row)
                      return a.row < b.row;
                  return a.x0 < b.x0;
              });
    // Coalesce intervals that touch or share an aligned line, so a
    // boundary line between side-by-side chunks is read only once.
    std::vector<Segment> merged;
    std::size_t i = 0;
    while (i < segments.size()) {
        Segment cur = segments[i++];
        while (i < segments.size() &&
               segments[i].bin == cur.bin &&
               segments[i].row == cur.row &&
               (segments[i].x0 & ~7u) <= cur.x1) {
            cur.x1 = std::max(cur.x1, segments[i].x1);
            ++i;
        }
        merged.push_back(cur);
    }
    return merged;
}

std::uint64_t
Database::physicalScanLineCount(TableId id) const
{
    std::uint64_t n = 0;
    for (const Segment &s : physicalSegments(id))
        n += s.lines();
    return n;
}

util::Generator<LineRef>
Database::physicalScan(TableId id, std::uint64_t lo,
                       std::uint64_t hi) const
{
    std::uint64_t first = 0; // index of the segment's first line
    for (const Segment &s : physicalSegments(id)) {
        const std::uint64_t n = s.lines();
        if (first >= hi)
            break;
        if (first + n > lo) {
            const std::uint64_t from = std::max(lo, first) - first;
            const std::uint64_t to = std::min(hi, first + n) - first;
            const unsigned c0 = s.x0 & ~7u;
            for (std::uint64_t k = from; k < to; ++k) {
                const unsigned c = c0 + static_cast<unsigned>(k) * 8;
                co_yield LineRef{physAddr(s.bin, s.row, c,
                                          Orientation::Row),
                                 Orientation::Row};
            }
        }
        first += n;
    }
}

bool
Database::gatherable(TableId id, unsigned w) const
{
    if (kind_ != mem::DeviceKind::GsDram)
        return false;
    const PlacedTable &pt = tables_.at(id);
    if (pt.layout != ChunkLayout::RowOriented)
        return false;
    const unsigned tw = pt.table->schema().tupleWords();
    if (!util::isPowerOfTwo(tw))
        return false;
    // The 8-word gather group must sit inside one DRAM row.
    const std::uint64_t span = (std::uint64_t{7} * tw + 1) * 8;
    if (span > map_.geometry().rowBytes())
        return false;
    (void)w;
    return true;
}

} // namespace rcnvm::imdb
