#include "mem/tier.hh"

#include <cmath>

#include "util/logging.hh"

namespace rcnvm::mem {

RemapTable::RemapTable(const Geometry &far, const Geometry &near)
    : far_(far), near_(near)
{
    if (near_.channels != far_.channels)
        rcnvm_panic("remap table: near tier must match the far "
                    "channel count (", near_.channels, " vs ",
                    far_.channels, ")");
    if (near_.colsPerSubarray != far_.colsPerSubarray ||
        near_.wordBytes != far_.wordBytes)
        rcnvm_panic("remap table: near frames must hold exactly one "
                    "far row (cols ", near_.colsPerSubarray, " vs ",
                    far_.colsPerSubarray, ", word ", near_.wordBytes,
                    " vs ", far_.wordBytes, ")");

    banksPerChannel_ = near_.ranksPerChannel * near_.banksPerRank *
                       near_.subarraysPerBank;
    framesPerChannel_ = banksPerChannel_ * near_.rowsPerSubarray;

    const std::uint64_t nRows = std::uint64_t{far_.channels} *
                                far_.ranksPerChannel *
                                far_.banksPerRank *
                                far_.subarraysPerBank *
                                far_.rowsPerSubarray;
    rowToFrame_.assign(nRows, -1);
    frameToRow_.assign(std::size_t{far_.channels} * framesPerChannel_,
                       -1);
}

std::uint64_t
RemapTable::rowId(const DecodedAddr &d) const
{
    return (((std::uint64_t{d.channel} * far_.ranksPerChannel +
              d.rank) *
                 far_.banksPerRank +
             d.bank) *
                far_.subarraysPerBank +
            d.subarray) *
               far_.rowsPerSubarray +
           d.row;
}

DecodedAddr
RemapTable::rowLocation(std::uint64_t row_id) const
{
    DecodedAddr d;
    d.row = static_cast<unsigned>(row_id % far_.rowsPerSubarray);
    row_id /= far_.rowsPerSubarray;
    d.subarray = static_cast<unsigned>(row_id % far_.subarraysPerBank);
    row_id /= far_.subarraysPerBank;
    d.bank = static_cast<unsigned>(row_id % far_.banksPerRank);
    row_id /= far_.banksPerRank;
    d.rank = static_cast<unsigned>(row_id % far_.ranksPerChannel);
    d.channel = static_cast<unsigned>(row_id / far_.ranksPerChannel);
    return d;
}

unsigned
RemapTable::rowChannel(std::uint64_t row_id) const
{
    return static_cast<unsigned>(row_id / (rows() / far_.channels));
}

void
RemapTable::map(std::uint64_t row_id, std::uint32_t frame)
{
    if (rowToFrame_[row_id] != -1)
        rcnvm_panic("remap: row ", row_id, " is already mapped");
    if (frameToRow_[frame] != -1)
        rcnvm_panic("remap: frame ", frame, " is occupied");
    if (frame / framesPerChannel_ != rowChannel(row_id))
        rcnvm_panic("remap: cross-channel mapping of row ", row_id,
                    " into frame ", frame);
    rowToFrame_[row_id] = static_cast<std::int32_t>(frame);
    frameToRow_[frame] = static_cast<std::int64_t>(row_id);
    ++mapped_;
}

void
RemapTable::unmap(std::uint64_t row_id)
{
    const std::int32_t frame = rowToFrame_[row_id];
    if (frame == -1)
        rcnvm_panic("remap: row ", row_id, " is not mapped");
    rowToFrame_[row_id] = -1;
    frameToRow_[static_cast<std::uint32_t>(frame)] = -1;
    --mapped_;
}

DecodedAddr
RemapTable::toNear(const DecodedAddr &far_dec) const
{
    const std::int64_t frame = frameOf(rowId(far_dec));
    if (frame < 0)
        rcnvm_panic("remap: toNear on an unmapped row");
    return frameLocation(static_cast<std::uint32_t>(frame),
                         far_dec.col);
}

DecodedAddr
RemapTable::frameLocation(std::uint32_t frame, unsigned col) const
{
    DecodedAddr d;
    d.channel = frame / framesPerChannel_;
    const std::uint32_t local = frame % framesPerChannel_;
    // Bank-major-last decomposition: consecutive frames round-robin
    // across the near banks before reusing a bank's next row.
    const std::uint32_t bankIdx = local % banksPerChannel_;
    d.row = local / banksPerChannel_;
    d.subarray = bankIdx % near_.subarraysPerBank;
    d.bank = (bankIdx / near_.subarraysPerBank) % near_.banksPerRank;
    d.rank = bankIdx / (near_.subarraysPerBank * near_.banksPerRank);
    d.col = col;
    d.offset = 0;
    return d;
}

void
RemapTable::reset()
{
    rowToFrame_.assign(rowToFrame_.size(), -1);
    frameToRow_.assign(frameToRow_.size(), -1);
    mapped_ = 0;
}

RowLocalityTracker::RowLocalityTracker(const Geometry &far,
                                       double alpha,
                                       Tick decay_period)
    : alpha_(alpha),
      decayPeriod_(decay_period),
      rowsPerBank_(std::uint64_t{far.subarraysPerBank} *
                   far.rowsPerSubarray)
{
    const std::uint64_t nRows = std::uint64_t{far.channels} *
                                far.ranksPerChannel *
                                far.banksPerRank * rowsPerBank_;
    rows_.assign(nRows, RowLocality{});
    shadow_.assign(std::size_t{far.channels} * far.ranksPerChannel *
                       far.banksPerRank,
                   kClosed);
}

void
RowLocalityTracker::decayTo(RowLocality &r, Tick now) const
{
    if (decayPeriod_ == Tick{} || now < r.lastDecay)
        return;
    const std::uint64_t k =
        (now - r.lastDecay).value() / decayPeriod_.value();
    if (k == 0)
        return;
    const float scale =
        k >= 64 ? 0.0f : std::ldexp(1.0f, -static_cast<int>(k));
    r.rowTouches *= scale;
    r.colTouches *= scale;
    r.lastDecay = Tick{r.lastDecay.value() +
                       k * decayPeriod_.value()};
}

bool
RowLocalityTracker::recordRow(std::uint64_t row_id, Tick now)
{
    std::int64_t &open = shadow_[bankOf(row_id)];
    const bool hit = open == static_cast<std::int64_t>(row_id);
    open = static_cast<std::int64_t>(row_id);

    RowLocality &r = rows_[row_id];
    decayTo(r, now);
    r.ewmaMiss = static_cast<float>(
        (1.0 - alpha_) * r.ewmaMiss + alpha_ * (hit ? 0.0 : 1.0));
    r.rowTouches += 1.0f;
    return hit;
}

void
RowLocalityTracker::recordColumn(std::uint64_t row_id, Tick now)
{
    shadow_[bankOf(row_id)] = kColumn;
    RowLocality &r = rows_[row_id];
    decayTo(r, now);
    r.colTouches += 1.0f;
}

RowLocality
RowLocalityTracker::sample(std::uint64_t row_id, Tick now) const
{
    RowLocality r = rows_[row_id];
    decayTo(r, now);
    return r;
}

void
RowLocalityTracker::reset()
{
    rows_.assign(rows_.size(), RowLocality{});
    shadow_.assign(shadow_.size(), kClosed);
}

} // namespace rcnvm::mem
