#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rcnvm::sim {

void
EventQueue::panicPastEvent(Tick when) const
{
    rcnvm_panic("event scheduled in the past: ", when, " < ", now_);
}

EventQueue::Entry
EventQueue::popTop()
{
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
        // Sift the displaced last entry down from the root.
        std::size_t i = 0;
        for (;;) {
            const std::size_t first = kHeapArity * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t end = std::min(first + kHeapArity, n);
            for (std::size_t c = first + 1; c < end; ++c) {
                if (earlier(heap_[c], heap_[best]))
                    best = c;
            }
            if (!earlier(heap_[best], last))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }
    return top;
}

EventQueue::Callback
EventQueue::takeSlot(std::uint32_t slot)
{
    // Move out before running: the callback may schedule new events
    // and reallocate the slab.
    Callback cb = std::move(slab_[slot]);
    free_.push_back(slot);
    return cb;
}

void
EventQueue::run()
{
    while (!heap_.empty()) {
        const Entry entry = popTop();
        Callback cb = takeSlot(entry.slot);
        now_ = entry.when;
        ++executed_;
        cb();
    }
}

void
EventQueue::runUntil(Tick limit)
{
    while (!heap_.empty() && heap_.front().when <= limit) {
        const Entry entry = popTop();
        Callback cb = takeSlot(entry.slot);
        now_ = entry.when;
        ++executed_;
        cb();
    }
    if (now_ < limit)
        now_ = limit;
}

} // namespace rcnvm::sim
