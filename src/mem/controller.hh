/**
 * @file
 * Per-channel memory controller with an FR-FCFS scheduler
 * (first-ready, first-come-first-served; Rixner et al.), optionally
 * with an upper tier for OLTP-flagged reads. trySchedule() is the
 * one place a request is chosen; Bank::lookahead() is the one place
 * its command chain is timed.
 */

#ifndef RCNVM_MEM_CONTROLLER_HH_
#define RCNVM_MEM_CONTROLLER_HH_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "mem/bank.hh"
#include "mem/geometry.hh"
#include "mem/request.hh"
#include "mem/timing.hh"
#include "sim/event_queue.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace rcnvm::mem {

/** How a channel controller ranks the requests ready in a round. */
enum class SchedPolicyKind {
    FrFcfs,       //!< first-ready FCFS (default; Rixner et al.)
    ReadPriority, //!< OLTP-flagged reads first, FR-FCFS in each tier
};

/** Statistics collected by one channel controller. */
struct ControllerStats {
    util::Counter reads;
    util::Counter writes;
    util::Counter gathered;
    util::Counter rowAccesses;
    util::Counter colAccesses;
    util::Counter bufferHits;
    util::Counter bufferMisses;
    util::Counter bufferConflicts;
    util::Counter orientationSwitches;
    util::Counter rowBufferHits;
    util::Counter rowBufferMisses; //!< miss + conflict + switch (row)
    util::Counter colBufferHits;
    util::Counter colBufferMisses;
    util::Sampled queueWaitTicks;
    util::Histogram queueWaitHist; //!< log2 buckets of wait ticks
    util::Sampled serviceTicks;
    util::Sampled bankQueueDepth; //!< target bank's depth at enqueue
    util::Sampled queueOccupancy; //!< total queued after each enqueue
    util::Counter busBusyTicks;   //!< bus slots consumed (2x gathered)
    util::Counter wakeups;        //!< scheduler wakeup events that ran
    double energyPJ = 0.0;        //!< accumulated device energy
};

/**
 * One channel: per-bank request queues, the channel's banks, and the
 * shared data bus. Requests complete asynchronously via callbacks.
 *
 * Selection is FR-FCFS: the oldest ready request that hits an open
 * buffer is served first; otherwise the oldest ready FIFO front.
 * Under SchedPolicyKind::ReadPriority, OLTP-flagged reads form an
 * upper tier ranked the same way, and everything else competes only
 * when no flagged read is ready. A request is ready only when its
 * bank can start the command AND the shared bus will be free by the
 * time its data burst begins, so bus slots are granted in scheduling
 * order rather than being committed queue-deep in advance (gathered
 * GS-DRAM lines occupy two slots). A starvation cap bounds how many
 * times the globally oldest request may be bypassed by any younger
 * request, in either tier.
 */
class ChannelController
{
  public:
    /**
     * @param map      address map shared by the memory system
     * @param timing   device timing parameters
     * @param eq       simulation event queue
     * @param queue_capacity  request-queue depth (Table 1: 32)
     * @param salp     give each subarray its own buffer pair
     *                 (subarray-level-parallelism extension)
     * @param channel_id  channel number (trace-event attribution)
     * @param sched    request-selection policy (default FR-FCFS)
     */
    ChannelController(const AddressMap &map, const TimingParams &timing,
                      sim::EventQueue &eq, unsigned queue_capacity = 32,
                      bool salp = false, unsigned channel_id = 0,
                      SchedPolicyKind sched = SchedPolicyKind::FrFcfs);

    /** True when the request queue has room. */
    bool canAccept() const { return totalQueued_ < capacity_; }

    /** Add a request (caller must have checked canAccept). */
    void enqueue(MemPacket &&req);

    /** Number of queued (not yet issued) requests. */
    std::size_t queued() const { return totalQueued_; }

    /** Configured request-queue depth. */
    unsigned capacity() const { return capacity_; }

    /**
     * Register a backpressure hook: invoked (via a same-tick event,
     * never re-entrantly from inside the scheduler) whenever the
     * queue occupancy drops back below capacity, so a client that
     * was refused by canAccept() knows when to retry.
     */
    void setSpaceCallback(std::function<void()> cb)
    {
        spaceCb_ = std::move(cb);
    }

    /** Controller statistics. */
    const ControllerStats &stats() const { return stats_; }

    /** Ticks covered by the statistics: since construction. */
    Tick statsElapsed() const { return eq_.now() - statsSince_; }

  private:
    struct Pending {
        MemPacket req;
        DecodedAddr dec;
        Tick enqueueTick;
        std::uint64_t seq;    //!< global arrival order
        unsigned bufferIdx;   //!< row (row orient) or column index
        unsigned bypassed = 0;
    };

    /** Pending requests of one bank, in arrival order. */
    struct BankQueue {
        std::deque<Pending> fifo;
        /** Position of the oldest open-buffer hit, or -1. Valid
         *  against the bank's current buffer state; recomputed after
         *  every issue from this bank. */
        std::ptrdiff_t hitPos = -1;
        bool active = false; //!< listed in activeBanks_
    };

    /** Flat bank index for a decoded address. */
    unsigned bankIndex(const DecodedAddr &d) const;

    /** Buffer index within the bank for a request orientation. */
    static unsigned bufferIndex(const DecodedAddr &d, Orientation o);

    /** Issue as many requests as are ready right now: each round
     *  scans the banks once and issues the first of the tier-0 hit,
     *  tier-0 front, tier-1 hit and tier-1 front, unless the
     *  starvation cap holds the round for the oldest request. */
    void trySchedule();

    /** Arrange a future trySchedule call at @p when. */
    void scheduleWakeup(Tick when);

    /** Drop any armed wakeup (nothing left to schedule). */
    void cancelWakeup();

    /** Serve entry @p pos of bank @p bank's queue. */
    void issueFrom(unsigned bank, std::size_t pos);

    /** Recompute @p bq's oldest-hit cache against @p bank. */
    void refreshHitPos(BankQueue &bq, const Bank &bank) const;

    /** Earliest tick a request with burst lead @p lead may issue so
     *  its burst queues at most busHorizon() deep behind the bus.
     *  Requests whose command chain is longer than the horizon issue
     *  early enough that bank preparation overlaps the backlog. */
    Tick busReadyAt(Tick lead) const
    {
        const Tick slack = std::max(lead, busHorizon());
        return busFree_ > slack ? busFree_ - slack : Tick{};
    }

    /** How far ahead of the bus a request may be issued: two
     *  gathered transfers (each two burst slots) of backlog. */
    Tick busHorizon() const
    {
        return timing_.cyc(timing_.tBURST) * 4;
    }

    const AddressMap &map_;
    TimingParams timing_;
    sim::EventQueue &eq_;
    /** OLTP-flagged reads rank in the upper tier (ReadPriority). */
    bool readPriority_;
    unsigned capacity_;
    unsigned channelId_;
    std::vector<Bank> banks_;
    std::vector<BankQueue> bankQueues_;
    std::vector<unsigned> activeBanks_; //!< banks with pending work
    std::size_t totalQueued_ = 0;
    std::uint64_t nextSeq_ = 0;
    Tick busFree_{0};
    Tick wakeupAt_{0};
    bool wakeupScheduled_ = false;
    std::uint64_t wakeupGen_ = 0; //!< cancels superseded wakeups
    Tick statsSince_{0};
    ControllerStats stats_;
    std::function<void()> spaceCb_;
    bool spaceNotifyPending_ = false;

    /** Max bypasses of the globally oldest request. */
    static constexpr unsigned starvationCap = 16;
};

} // namespace rcnvm::mem

#endif // RCNVM_MEM_CONTROLLER_HH_
