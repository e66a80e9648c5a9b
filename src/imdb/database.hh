/**
 * @file
 * Data placement of IMDB tables onto a memory device (Sec. 4.5).
 *
 * Tables are sliced into chunks of up to 1024 tuples. Chunk
 * contents live in a 1024x1024-word chunk space with one of two
 * intra-chunk layouts (Figure 13):
 *
 *  - RowOriented:    tuples run left-to-right, wrapping row by row
 *                    (the classical row-store order);
 *  - ColumnOriented: tuple t occupies row t, so one field forms a
 *                    physical column across tuples.
 *
 * Chunks are packed into bins by the online 2-D bin packer (with
 * rotation) and bins are realised differently per device:
 *
 *  - RC-NVM: a bin is a physical subarray, spread round-robin over
 *    channels/ranks/banks; words get both row- and column-oriented
 *    addresses via the Figure-7 map.
 *  - DRAM/RRAM/GS-DRAM: a bin is an 8 MB linear region, linearised
 *    row-major (8 KB virtual rows) and interleaved across
 *    channels/ranks/banks at row-buffer granularity. RowOriented
 *    chunks then reproduce exactly the classical contiguous
 *    row-store layout.
 */

#ifndef RCNVM_IMDB_DATABASE_HH_
#define RCNVM_IMDB_DATABASE_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "imdb/bin_packing.hh"
#include "imdb/table.hh"
#include "mem/geometry.hh"
#include "mem/timing.hh"
#include "util/generator.hh"
#include "util/types.hh"

namespace rcnvm::imdb {

/** Intra-chunk data layout (Figure 13). */
enum class ChunkLayout : std::uint8_t {
    RowOriented,
    ColumnOriented,
};

/**
 * Inter-chunk placement policy.
 *
 * Packed minimises the number of subarrays used (the Fujita
 * bin-packing objective of Sec. 4.5.3). Spread round-robins
 * consecutive chunks over one bin per bank, trading subarray count
 * for bank-level parallelism; it is the performance default and the
 * packing-ablation bench quantifies the trade.
 */
enum class PlacementPolicy : std::uint8_t {
    Packed,
    Spread,
};

/** One 64-byte line access the compiler should emit. */
struct LineRef {
    Addr addr = 0;
    Orientation orient = Orientation::Row;

    bool operator==(const LineRef &) const = default;
};

/**
 * A database instance bound to one memory device: tables, their
 * placement, and the address/geometry queries used by the query
 * compiler.
 */
class Database
{
  public:
    using TableId = unsigned;

    /** Tuples per chunk (one subarray row/column worth). */
    static constexpr unsigned chunkTuples = 1024;

    /** Bin (subarray) side in 8-byte words. */
    static constexpr unsigned binSide = 1024;

    /**
     * @param kind  device the database runs on
     * @param map   the device's address map
     * @param policy  inter-chunk placement policy (dual-addressable
     *        devices only; linear devices interleave at row-buffer
     *        granularity regardless)
     * @param allow_rotation  let the packer rotate chunks
     */
    Database(mem::DeviceKind kind, const mem::AddressMap &map,
             PlacementPolicy policy = PlacementPolicy::Spread,
             bool allow_rotation = true);

    /** True when the device supports column-oriented access. */
    bool columnCapable() const { return colCapable_; }

    /** Device kind the database is placed on. */
    mem::DeviceKind deviceKind() const { return kind_; }

    /**
     * Place a table. Tables must outlive the database. On devices
     * without column access the requested layout is still honoured
     * (it changes the linearised image), which is how the Fig-17
     * micro-benchmarks exercise L1/L2 layouts on DRAM and RRAM.
     */
    TableId addTable(const Table *table, ChunkLayout layout);

    /** The table object behind an id. */
    const Table &table(TableId id) const;

    /** The layout a table was placed with. */
    ChunkLayout layout(TableId id) const;

    /**
     * Physical address of word @p w of tuple @p t, expressed in
     * @p space orientation. Column space is only valid on
     * column-capable devices.
     */
    Addr wordAddr(TableId id, std::uint64_t t, unsigned w,
                  Orientation space) const;

    /**
     * Append to @p out the 64-byte line accesses that read field
     * word @p w of every tuple in [t0, t1), in a buffer-friendly,
     * order-insensitive sequence (aggregations, predicate scans).
     */
    void fieldScanLines(TableId id, unsigned w, std::uint64_t t0,
                        std::uint64_t t1,
                        std::vector<LineRef> &out) const;

    /** The number of lines fieldScanLines() appends, without
     *  building them (the query compiler's cost model). */
    std::uint64_t fieldScanLineCount(TableId id, unsigned w,
                                     std::uint64_t t0,
                                     std::uint64_t t1) const;

    /**
     * Append the line accesses that fetch words [w0, w1) of tuple
     * @p t (tuple materialisation).
     */
    void tupleLines(TableId id, std::uint64_t t, unsigned w0,
                    unsigned w1, std::vector<LineRef> &out) const;

    /**
     * The single line that covers field word @p w of the 8-aligned
     * tuple group starting at @p t, oriented along the tuple axis.
     * Exists only for column-oriented chunks (rotated or not):
     * unrotated chunks yield a column-oriented line, rotated chunks
     * a row-oriented one. Returns false for row-oriented layouts,
     * where one line cannot cover a tuple group of one field.
     */
    bool fieldLine(TableId id, std::uint64_t t, unsigned w,
                   LineRef &out) const;

    /** The number of lines in a whole-table physicalScan(). */
    std::uint64_t physicalScanLineCount(TableId id) const;

    /**
     * Lines [lo, hi) of an order-insensitive whole-table sequential
     * scan, in (bin, row, column) order, generated one at a time (a
     * core's share of a full scan; [0, ~0) is the whole scan).
     * Adjacent chunks sharing physical rows are merged so open rows
     * are drained before moving on (the Fig-17 "row-direction"
     * scan). The database must outlive the generator.
     */
    util::Generator<LineRef> physicalScan(TableId id, std::uint64_t lo,
                                          std::uint64_t hi) const;

    /**
     * True when GS-DRAM can gather field word @p w of this table:
     * row-oriented layout, power-of-two tuple stride, and the
     * 8-word gather group contained in one DRAM row.
     */
    bool gatherable(TableId id, unsigned w) const;

    /** Bins (subarrays / 8 MB regions) in use. */
    unsigned binsUsed() const { return packer_.binsUsed(); }

    /** Area utilisation of the bin packing. */
    double packingUtilization() const
    {
        return packer_.utilization();
    }

  private:
    struct ChunkPlace {
        PackSlot slot;
        std::uint64_t firstTuple = 0;
        unsigned tupleCount = 0;
        unsigned rectW = 0; //!< pre-rotation rectangle width
        unsigned rectH = 0;
    };

    struct PlacedTable {
        const Table *table = nullptr;
        ChunkLayout layout = ChunkLayout::ColumnOriented;
        std::vector<ChunkPlace> chunks;
    };

    /** Chunk-space coordinates of (local tuple u, word w). */
    void chunkCoord(const PlacedTable &pt, const ChunkPlace &cp,
                    unsigned u, unsigned w, unsigned &r,
                    unsigned &c) const;

    /** Physical address of bin-space word (r, c). */
    Addr physAddr(unsigned bin, unsigned r, unsigned c,
                  Orientation space) const;

    /** Spread @p n over @p d's channel, rank and bank, channel
     *  fastest; returns what is left above them. */
    std::uint64_t splitBanks(std::uint64_t n, mem::DecodedAddr &d) const;

    /** One row's x-interval [x0, x1] (in words) of a physical
     *  scan. */
    struct Segment {
        unsigned bin, row, x0, x1;

        /** Lines the interval covers. */
        std::uint64_t
        lines() const
        {
            return (x1 - (x0 & ~7u)) / 8 + 1;
        }
    };

    /** The physical scan's intervals in (bin, row, x) order, with
     *  intervals that share an aligned line merged. */
    std::vector<Segment> physicalSegments(TableId id) const;

    /**
     * Emit the row-oriented lines covering words [c0, c1] of row
     * @p r into @p out (push()ed one by one; see database.cc).
     * Addresses are computed per line, so the run stays correct
     * across block-interleave boundaries on linear devices.
     */
    template <class Sink>
    void emitRowRun(unsigned bin, unsigned r, unsigned c0,
                    unsigned c1, Sink &out) const;

    /**
     * Emit the column-oriented lines covering words [r0, r1] of
     * column @p c (dual-addressable devices only).
     */
    template <class Sink>
    void emitColRun(unsigned bin, unsigned r0, unsigned r1,
                    unsigned c, Sink &out) const;

    /** fieldScanLines() into any sink. */
    template <class Sink>
    void walkFieldScan(TableId id, unsigned w, std::uint64_t t0,
                       std::uint64_t t1, Sink &out) const;

    mem::DeviceKind kind_;
    /** By value: the database must stay usable for plan building
     *  after the caller's map goes out of scope. */
    mem::AddressMap map_;
    // log2 of the geometry fields physAddr() splits by; the address
    // map demands that each be a power of two.
    unsigned channelBits_;
    unsigned rankBits_;
    unsigned bankBits_;
    unsigned rowsBits_;     //!< rows per subarray
    unsigned rowBytesBits_; //!< bytes per row
    unsigned wordBits_;     //!< bytes per word
    bool colCapable_;
    bool spread_;
    BinPacker packer_;
    std::vector<PlacedTable> tables_;
};

} // namespace rcnvm::imdb

#endif // RCNVM_IMDB_DATABASE_HH_
