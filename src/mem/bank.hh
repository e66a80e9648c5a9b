/**
 * @file
 * Bank state machine with a row buffer and (for RC-NVM) a column
 * buffer. Implements the paper's restriction that the two buffers
 * are never active at the same time (Sec. 3).
 */

#ifndef RCNVM_MEM_BANK_HH_
#define RCNVM_MEM_BANK_HH_

#include <cstdint>
#include <vector>

#include "mem/timing.hh"
#include "util/types.hh"

namespace rcnvm::mem {

/** How a request was served by the bank buffers. */
enum class AccessOutcome {
    BufferHit,         //!< open buffer already holds the target line
    BufferMiss,        //!< bank was precharged; plain activate
    BufferConflict,    //!< same orientation, different row/column
    OrientationSwitch, //!< other-orientation buffer had to be closed
};

/**
 * Timing and buffer state of one bank.
 *
 * A bank holds either its row buffer or its column buffer open,
 * identified by (subarray, index). Service times are computed from
 * TimingParams; the bank records when it is next able to accept a
 * command and when the open buffer was activated (for tRAS).
 */
class Bank
{
  public:
    /** Result of serving one request. */
    struct Service {
        Tick start{0};      //!< when the command began
        Tick dataStart{0};  //!< when the data burst may begin
        Tick finish{0};     //!< when the burst completes
        Tick busyUntil{0};  //!< bank internally busy until here
        AccessOutcome outcome = AccessOutcome::BufferHit;
        bool flushedDirty = false; //!< a dirty buffer was written back
    };

    /** What is currently latched in the bank periphery. */
    enum class BufState : std::uint8_t { Closed, RowOpen, ColOpen };

    /**
     * @param salp_subarrays  when > 0, give each subarray its own
     *        buffer state (SALP-style subarray-level parallelism, an
     *        extension the paper lists as orthogonal related work);
     *        0 models the paper's single buffer pair per bank.
     */
    explicit Bank(unsigned salp_subarrays = 0);

    /** Earliest tick the next command can start. */
    Tick nextReady() const { return nextReady_; }

    /** Buffer state responsible for @p subarray. */
    BufState bufState(unsigned subarray = 0) const
    {
        return bufferFor(subarray).state;
    }

    /** Subarray owning the open buffer (valid unless Closed). */
    unsigned openSubarray(unsigned subarray = 0) const
    {
        return bufferFor(subarray).subarray;
    }

    /** Row or column index of the open buffer. */
    unsigned openIndex(unsigned subarray = 0) const
    {
        return bufferFor(subarray).index;
    }

    /** True when the buffer holds unwritten modifications. */
    bool bufferDirty(unsigned subarray = 0) const
    {
        return bufferFor(subarray).dirty;
    }

    /**
     * Would a request for (@p orient, @p subarray, @p index) hit the
     * open buffer right now? Used by the FR-FCFS scheduler.
     */
    bool hits(Orientation orient, unsigned subarray,
              unsigned index) const;

    /**
     * How a request would be served right now, without mutating any
     * state: the one encoding of the command chain (the tRAS bound,
     * the dirty tWR flush, tRP, tRCD, tCAS), which access() and the
     * controller's scheduler both read. `cmdReady` is the earliest
     * tick the command sequence could start (bank busy plus, for
     * buffer closes, the tRAS bound); `lead` is the fixed delay from
     * command start to the data burst (flush + precharge + activate
     * + CAS as applicable). For any start >= cmdReady, access() at
     * that start begins its burst exactly at start + lead (bus
     * permitting), so the controller can place bursts against the
     * shared bus without issuing early.
     */
    struct Lookahead {
        Tick cmdReady{0}; //!< earliest command start
        Tick lead{0};     //!< command start to data-burst start
        AccessOutcome outcome = AccessOutcome::BufferHit;
    };
    Lookahead lookahead(Orientation orient, unsigned subarray,
                        unsigned index, const TimingParams &t) const;

    /**
     * Serve one access at the CAS tick lookahead() gives, updating
     * buffer and timing state.
     *
     * @param now       current tick (command may start later if the
     *                  bank is still busy)
     * @param orient    access orientation
     * @param subarray  target subarray
     * @param index     target row (row orientation) or column
     * @param isWrite   write access
     * @param t         device timing parameters
     * @param bus_free  earliest tick the channel data bus is free;
     *                  the data burst is delayed until then
     * @return service timing and outcome classification
     */
    Service access(Tick now, Orientation orient, unsigned subarray,
                   unsigned index, bool isWrite, const TimingParams &t,
                   Tick bus_free = Tick{});

  private:
    /** Buffer state of one subarray group. */
    struct Buffer {
        BufState state = BufState::Closed;
        unsigned subarray = 0;
        unsigned index = 0;
        bool dirty = false;
        Tick lastActivate{0};
    };

    /** The buffer responsible for @p subarray. */
    Buffer &bufferFor(unsigned subarray);
    const Buffer &bufferFor(unsigned subarray) const;

    /** Outcome a request would see against @p buf right now. */
    static AccessOutcome classify(const Buffer &buf, Orientation orient,
                                  unsigned subarray, unsigned index);

    std::vector<Buffer> buffers_; //!< one, or one per subarray (SALP)
    Tick nextReady_{0};
};

} // namespace rcnvm::mem

#endif // RCNVM_MEM_BANK_HH_
