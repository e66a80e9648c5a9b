/**
 * @file
 * Miss-status holding registers: the bounded book-keeping that lets
 * the cache hierarchy overlap misses without duplicating in-flight
 * line fills (gem5-style MSHR file with per-line target lists).
 */

#ifndef RCNVM_CACHE_MSHR_HH_
#define RCNVM_CACHE_MSHR_HH_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/line.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/types.hh"
#include "util/unique_function.hh"

namespace rcnvm::cache {

/**
 * One coalesced consumer of an in-flight line fill. Every access
 * that arrives while the line is already being fetched appends a
 * target instead of occupying a second controller queue slot; all
 * targets are serviced, in arrival order, from the single fill.
 */
struct MshrTarget {
    unsigned core = 0;   //!< requesting core (fill destination)
    unsigned word = 0;   //!< word index touched (synonym engine)
    bool isWrite = false;
    /** L3-prefetch target: fills the shared cache only, no private
     *  fill and no per-core completion latency. */
    bool prefetchOnly = false;
    util::UniqueFunction<void(Tick)> done;
};

/** One in-flight line fill and everyone waiting on it. */
struct MshrEntry {
    LineKey key{};
    std::vector<MshrTarget> targets;
};

/**
 * A fixed pool of MSHR entries. Lookups are deterministic linear
 * scans over a validity bitmask: the pool is small (Table-1 scale,
 * tens of entries), only live entries are ever touched, and scan
 * order never depends on allocation history, so simulations replay
 * identically. When the pool is full the hierarchy refuses the
 * access and the core retries after the next fill completes.
 */
class MshrFile
{
  public:
    explicit MshrFile(unsigned capacity) : entries_(capacity)
    {
        // The validity mask caps the pool at one machine word; real
        // MSHR files are far smaller (Table-1 scale uses 16).
        if (capacity > 64)
            rcnvm_panic("MSHR file capacity above 64 entries");
    }

    /** Entry tracking @p key, or nullptr when no fill is in flight. */
    MshrEntry *find(const LineKey &key)
    {
        for (std::uint64_t m = valid_; m != 0; m &= m - 1) {
            MshrEntry &e = entries_[std::countr_zero(m)];
            if (e.key == key)
                return &e;
        }
        return nullptr;
    }

    /**
     * Claim a free entry for @p key (caller must have checked find).
     * Returns nullptr when the file is full; on success the
     * occupancy including the new entry is sampled.
     */
    MshrEntry *allocate(const LineKey &key)
    {
        if (full())
            return nullptr;
        // Lowest free slot: with the file not full, it is always
        // below capacity, and the choice is history-independent.
        const unsigned i =
            static_cast<unsigned>(std::countr_zero(~valid_));
        valid_ |= std::uint64_t{1} << i;
        entries_[i].key = key;
        ++inUse_;
        occupancy_.sample(static_cast<double>(inUse_));
        return &entries_[i];
    }

    /** Release @p entry once its fill has serviced every target. */
    void free(MshrEntry &entry)
    {
        const auto i =
            static_cast<std::size_t>(&entry - entries_.data());
        valid_ &= ~(std::uint64_t{1} << i);
        entry.targets.clear(); // keeps capacity for the next miss
        --inUse_;
    }

    /** Stable slot index of @p entry (for completion callbacks: a
     *  slot stays live, under the same key, until its fill's single
     *  completion frees it). */
    unsigned indexOf(const MshrEntry &entry) const
    {
        return static_cast<unsigned>(&entry - entries_.data());
    }

    /** Entry in slot @p index (caller must know it is live). */
    MshrEntry &at(unsigned index) { return entries_[index]; }

    /** True when slot @p index holds an in-flight fill. */
    bool live(unsigned index) const
    {
        return (valid_ >> index) & 1;
    }

    bool full() const { return inUse_ == entries_.size(); }
    std::size_t inUse() const { return inUse_; }
    std::size_t capacity() const { return entries_.size(); }

    /** Occupancy after each allocation (exported as a stat). */
    const util::Sampled &occupancy() const { return occupancy_; }

  private:
    std::vector<MshrEntry> entries_;
    std::uint64_t valid_ = 0; //!< bit i set = entries_[i] live
    std::size_t inUse_ = 0;
    util::Sampled occupancy_;
};

} // namespace rcnvm::cache

#endif // RCNVM_CACHE_MSHR_HH_
