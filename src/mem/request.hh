/**
 * @file
 * The memory packet type exchanged along the access path
 * Core -> Hierarchy -> MemorySystem -> ChannelController.
 */

#ifndef RCNVM_MEM_REQUEST_HH_
#define RCNVM_MEM_REQUEST_HH_

#include <cstdint>

#include "util/types.hh"
#include "util/unique_function.hh"

namespace rcnvm::mem {

/**
 * One memory transaction: a 64-byte line fill or write-back. The
 * orientation selects which address space the address lives in and
 * which bank buffer serves it; `gathered` marks a GS-DRAM in-row
 * gather access.
 */
struct MemPacket {
    Addr addr = 0;
    Orientation orient = Orientation::Row;
    bool isWrite = false;
    bool gathered = false;
    /** Latency-class traffic (OLTP-class requests): the read-
     *  priority scheduler policy lets reads carrying this flag
     *  bypass queued writes, bounded by the controller's global
     *  starvation cap. Internal traffic (write-backs) never sets
     *  it. */
    bool priority = false;

    /** Set the (addr, orient) pair from a statically-oriented
     *  address; the fields cannot disagree. */
    template <Orientation O>
    void
    setAddr(OrientedAddr<O> a)
    {
        addr = a.value();
        orient = O;
    }

    /** Invoked exactly once with the completion tick. May be empty
     *  for fire-and-forget write-backs. Move-only: a packet owns
     *  its continuation, so completion handlers are never copied.
     *  The widened inline capacity fits the cache hierarchy's
     *  continuations (a moved-in DoneFn, 64 bytes with padding, or
     *  a line key for the MSHR fill path) without a heap allocation
     *  per miss. */
    util::UniqueFunction<void(Tick), 96> onComplete;
};

// A moved packet must stay within the event queue's inline callback
// storage (one `this` pointer of headroom); growing it forces a heap
// allocation per simulated miss.
static_assert(sizeof(MemPacket) <= 152, "MemPacket outgrew the "
              "event-queue inline callback budget");

} // namespace rcnvm::mem

#endif // RCNVM_MEM_REQUEST_HH_
