/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Components schedule callbacks at absolute ticks (1 tick = 1 ps);
 * the queue executes them in tick order, breaking ties by insertion
 * order so simulations are fully deterministic.
 */

#ifndef RCNVM_SIM_EVENT_QUEUE_HH_
#define RCNVM_SIM_EVENT_QUEUE_HH_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.hh"
#include "util/unique_function.hh"

namespace rcnvm::sim {

/** Move-only inline-storage callable used for event callbacks.
 *  The widened inline capacity fits the largest hot-path capture (a
 *  moved-in MemPacket carrying its completion continuation), so
 *  scheduling an event never allocates. */
using UniqueFunction = util::UniqueFunction<void(), 160>;

/**
 * A deterministic tick-ordered event queue.
 *
 * Events are arbitrary callables. The queue owns no component state;
 * everything interesting happens inside the callbacks. Internally a
 * heap of small POD entries ordered by (tick, seq); the callbacks
 * themselves live in a slab indexed by the entries, so heap sifts
 * move small PODs instead of relocating whole captures.
 */
class EventQueue
{
  public:
    using Callback = UniqueFunction;

    EventQueue()
    {
        heap_.reserve(64);
        slab_.reserve(64);
        free_.reserve(64);
    }

    /** Schedule @p cb to run at absolute tick @p when.
     *  @pre when >= now()
     *  Defined inline: this runs several times per simulated access,
     *  and inlining lets callers materialise the callback directly
     *  in the slab slot. */
    void
    schedule(Tick when, Callback cb)
    {
        if (when < now_)
            panicPastEvent(when);
        pushEntry(Entry{when, nextSeq_++, storeSlot(std::move(cb))});
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    void scheduleAfter(Tick delay, Callback cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    /** Run events until the queue is empty. */
    void run();

    /** Run events with tick <= @p limit; later events stay queued. */
    void runUntil(Tick limit);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Tick of the earliest pending event. @pre pending() > 0 */
    Tick
    nextEventTick() const
    {
        return heap_.front().when;
    }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Slab slots holding a parked callback. A slot is freed before
     *  its callback runs, so this equals pending() whenever the
     *  queue is consistent; the drained-state audit checks it. */
    std::size_t occupiedSlots() const
    {
        return slab_.size() - free_.size();
    }

    /** Heap arity: a 4-ary heap halves the sift depth of a binary
     *  one and its four-child scans touch at most three cache lines
     *  of 24-byte entries, which measurably speeds up the
     *  simulator's hottest loop. */
    static constexpr std::size_t kHeapArity = 4;

    /** Total number of events executed since construction. */
    std::uint64_t executed() const { return executed_; }

  private:
    /** Out-of-line cold path of schedule()'s precondition check. */
    [[noreturn]] void panicPastEvent(Tick when) const;

    struct Entry {
        Tick when;
        std::uint64_t seq; //!< insertion order: breaks tick ties
        std::uint32_t slot;
    };
    static_assert(sizeof(Entry) == 24,
                  "heap entries must stay three words wide");

    /** Strict ordering of the min-heap: tick, then insertion order. */
    static bool
    earlier(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Park @p cb in the slab and return its slot. */
    std::uint32_t
    storeSlot(Callback cb)
    {
        std::uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
            slab_[slot] = std::move(cb);
        } else {
            slot = static_cast<std::uint32_t>(slab_.size());
            slab_.push_back(std::move(cb));
        }
        return slot;
    }

    /** Sift @p e up into the 4-ary min-heap. */
    void
    pushEntry(Entry e)
    {
        std::size_t i = heap_.size();
        heap_.push_back(e);
        while (i > 0) {
            const std::size_t parent = (i - 1) / kHeapArity;
            if (!earlier(e, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    /** Remove and return the earliest entry of the 4-ary min-heap. */
    Entry popTop();

    /** Take the callback for @p slot and recycle the slot. */
    Callback takeSlot(std::uint32_t slot);

    std::vector<Entry> heap_;
    std::vector<Callback> slab_;       //!< parked callbacks
    std::vector<std::uint32_t> free_;  //!< recycled slab slots
    Tick now_{0};
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace rcnvm::sim

#endif // RCNVM_SIM_EVENT_QUEUE_HH_
