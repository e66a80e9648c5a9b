/**
 * @file
 * Building blocks of the hybrid memory tier: the address-indirection
 * remap table that lets a small DRAM tier front a far NVM device,
 * and the per-row locality tracker that drives migration decisions
 * (row-buffer hit/miss EWMA per Yoon et al.'s RBLA controller).
 */

#ifndef RCNVM_MEM_TIER_HH_
#define RCNVM_MEM_TIER_HH_

#include <cstdint>
#include <vector>

#include "mem/geometry.hh"
#include "util/types.hh"

namespace rcnvm::mem {

/**
 * Address indirection between a far device and a small near tier.
 *
 * The unit of migration is one far physical row (one row-buffer's
 * worth, 8 KB for the Table-1 RC-NVM). Every far row has a dense
 * flat id; a mapped row redirects its row-oriented accesses to one
 * near-tier frame in the same channel (migrations are channel-local
 * by construction). The near geometry must agree with the far
 * geometry on channels, row width, and word size so the column/offset
 * fields of a far address carry over to the near frame unchanged.
 *
 * The table is pure indirection: map() and unmap() are exact
 * inverses, so any even number of migrations returns a row to
 * identity translation (the involution property the tests pin).
 */
class RemapTable
{
  public:
    RemapTable(const Geometry &far, const Geometry &near);

    /** Total number of far rows (dense id space). */
    std::uint64_t rows() const { return rowToFrame_.size(); }

    /** Total number of near frames. */
    std::uint32_t frames() const
    {
        return static_cast<std::uint32_t>(frameToRow_.size());
    }

    /** Near frames belonging to each channel. */
    std::uint32_t framesPerChannel() const { return framesPerChannel_; }

    /** Flat id of the far row holding @p d (a row-oriented decode). */
    std::uint64_t rowId(const DecodedAddr &d) const;

    /** Far location of row @p row_id at column 0: the inverse of
     *  rowId() (migration copy traffic). */
    DecodedAddr rowLocation(std::uint64_t row_id) const;

    /** Channel a far row id belongs to. */
    unsigned rowChannel(std::uint64_t row_id) const;

    /** Frame holding @p row_id, or -1 when the row is unmapped. */
    std::int64_t frameOf(std::uint64_t row_id) const
    {
        return rowToFrame_[row_id];
    }

    /** Far row id resident in @p frame, or -1 when the frame is free. */
    std::int64_t rowOfFrame(std::uint32_t frame) const
    {
        return frameToRow_[frame];
    }

    /** Redirect @p row_id into @p frame (same channel, both free). */
    void map(std::uint64_t row_id, std::uint32_t frame);

    /** Remove @p row_id's redirection (exact inverse of map()). */
    void unmap(std::uint64_t row_id);

    /** Rows currently redirected (remap-table occupancy). */
    std::size_t mappedRows() const { return mapped_; }

    /**
     * Translate a far row-oriented decode into its near-tier
     * location; the column and word offset carry over unchanged.
     * @pre the row is mapped
     */
    DecodedAddr toNear(const DecodedAddr &far_dec) const;

    /**
     * Near-tier location of @p frame at column @p col (used for
     * migration copy traffic before the mapping is committed).
     * Consecutive frame indices round-robin across the near banks so
     * co-resident hot rows keep bank-level parallelism.
     */
    DecodedAddr frameLocation(std::uint32_t frame,
                              unsigned col = 0) const;

  private:
    Geometry far_;
    Geometry near_;
    std::uint32_t framesPerChannel_;
    std::uint32_t banksPerChannel_; //!< near rank*bank*subarray count
    std::vector<std::int32_t> rowToFrame_; //!< far row id -> frame/-1
    std::vector<std::int64_t> frameToRow_; //!< frame -> far row id/-1
    std::size_t mapped_ = 0;
};

/** Decayed locality record of one far row. */
struct RowLocality {
    float ewmaMiss = 0.0f;   //!< row-buffer miss EWMA (far accesses)
    float rowTouches = 0.0f; //!< decayed row-oriented access count
    float colTouches = 0.0f; //!< decayed column-oriented access count
    Tick lastDecay{0};       //!< decay epoch boundary last applied
};

/**
 * Per-row access locality, maintained for the far device only (the
 * near tier is the destination, not the subject, of migration).
 *
 * Row-buffer outcomes are predicted against a shadow row buffer per
 * far bank: the tracker remembers the row a bank would hold open if
 * every request reached the device, so locality is measured on the
 * access stream itself, independent of what the controller happens
 * to reorder. Touch counters decay by halving once per period,
 * applied lazily per row so the tracker schedules no events (the
 * service loop's drain-to-quiescence contract stays intact).
 */
class RowLocalityTracker
{
  public:
    RowLocalityTracker(const Geometry &far, double alpha,
                       Tick decay_period);

    /**
     * Record a row-oriented access to @p row_id at @p now.
     * @return true when the shadow row buffer predicts a hit
     */
    bool recordRow(std::uint64_t row_id, Tick now);

    /** Record a column-oriented touch of @p row_id at @p now (the
     *  shadow buffer flips to column orientation: the next row
     *  access to the bank misses). */
    void recordColumn(std::uint64_t row_id, Tick now);

    /** Decayed locality of @p row_id as of @p now (non-mutating). */
    RowLocality sample(std::uint64_t row_id, Tick now) const;

  private:
    /** Far bank index of a row id (shadow-buffer granularity). */
    std::size_t bankOf(std::uint64_t row_id) const
    {
        return static_cast<std::size_t>(row_id / rowsPerBank_);
    }

    /** Apply any whole decay periods elapsed since @p r's last. */
    void decayTo(RowLocality &r, Tick now) const;

    double alpha_;
    Tick decayPeriod_;
    std::uint64_t rowsPerBank_; //!< subarraysPerBank * rowsPerSubarray
    std::vector<RowLocality> rows_;
    /** Open row id per far bank; kClosed initially, kColumn after a
     *  column-oriented access. */
    std::vector<std::int64_t> shadow_;

    static constexpr std::int64_t kClosed = -1;
    static constexpr std::int64_t kColumn = -2;
};

} // namespace rcnvm::mem

#endif // RCNVM_MEM_TIER_HH_
