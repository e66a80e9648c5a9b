#include "mem/bank.hh"

#include <algorithm>

namespace rcnvm::mem {

Bank::Bank(unsigned salp_subarrays)
{
    buffers_.resize(salp_subarrays > 0 ? salp_subarrays : 1);
}

Bank::Buffer &
Bank::bufferFor(unsigned subarray)
{
    if (buffers_.size() == 1)
        return buffers_[0];
    return buffers_[subarray % buffers_.size()];
}

const Bank::Buffer &
Bank::bufferFor(unsigned subarray) const
{
    if (buffers_.size() == 1)
        return buffers_[0];
    return buffers_[subarray % buffers_.size()];
}

bool
Bank::hits(Orientation orient, unsigned subarray, unsigned index) const
{
    return classify(bufferFor(subarray), orient, subarray, index) ==
           AccessOutcome::BufferHit;
}

AccessOutcome
Bank::classify(const Buffer &buf, Orientation orient, unsigned subarray,
               unsigned index)
{
    const BufState want = orient == Orientation::Row ? BufState::RowOpen
                                                     : BufState::ColOpen;
    if (buf.state == want && buf.subarray == subarray &&
        buf.index == index)
        return AccessOutcome::BufferHit;
    if (buf.state == BufState::Closed)
        return AccessOutcome::BufferMiss;
    if (buf.state == want)
        return AccessOutcome::BufferConflict;
    return AccessOutcome::OrientationSwitch;
}

Bank::Lookahead
Bank::lookahead(Orientation orient, unsigned subarray, unsigned index,
                const TimingParams &t) const
{
    const Buffer &buf = bufferFor(subarray);
    Lookahead la;
    la.cmdReady = nextReady_;
    la.lead = t.cyc(t.tCAS);
    la.outcome = classify(buf, orient, subarray, index);
    switch (la.outcome) {
      case AccessOutcome::BufferHit:
        break;
      case AccessOutcome::BufferMiss:
        la.lead += t.cyc(t.tRCD);
        break;
      case AccessOutcome::BufferConflict:
      case AccessOutcome::OrientationSwitch:
        // The paper's row/column switch closes the open buffer before
        // the new activate (Sec. 3): precharge waits out tRAS since
        // that buffer's activate, and a dirty buffer first takes the
        // cell write pulse.
        la.cmdReady = std::max(la.cmdReady,
                               buf.lastActivate + t.cyc(t.tRAS));
        la.lead += (buf.dirty ? t.cyc(t.tWR) : Tick{}) + t.cyc(t.tRP) +
                   t.cyc(t.tRCD);
        break;
    }
    return la;
}

Bank::Service
Bank::access(Tick now, Orientation orient, unsigned subarray,
             unsigned index, bool isWrite, const TimingParams &t,
             Tick bus_free)
{
    // lookahead() times the command chain; serving only applies the
    // state changes that chain implies.
    const Lookahead la = lookahead(orient, subarray, index, t);
    Buffer &buf = bufferFor(subarray);

    Service s;
    s.start = std::max(now, nextReady_);
    s.outcome = la.outcome;
    const Tick cas_at = std::max(now, la.cmdReady) + la.lead - t.cyc(t.tCAS);

    if (la.outcome != AccessOutcome::BufferHit) {
        // Close the open buffer (flushing it when dirty; a closed
        // buffer is never dirty) and activate the target one.
        s.flushedDirty = buf.dirty;
        buf.state = orient == Orientation::Row ? BufState::RowOpen
                                               : BufState::ColOpen;
        buf.subarray = subarray;
        buf.index = index;
        buf.dirty = false;
        buf.lastActivate = cas_at;
    }

    // The data burst waits for the channel bus. Consecutive accesses
    // to an open buffer pipeline at the CAS-to-CAS interval, so a
    // streaming scan saturates the bus.
    s.dataStart = std::max(cas_at + t.cyc(t.tCAS), bus_free);
    s.finish = s.dataStart + t.cyc(t.tBURST);
    s.busyUntil = cas_at + t.cyc(t.tCCD);

    if (isWrite)
        buf.dirty = true;

    nextReady_ = s.busyUntil;
    return s;
}

} // namespace rcnvm::mem
