/**
 * @file
 * A single set-associative cache level with LRU replacement,
 * orientation-aware tags, crossing-bit storage, pinning, and - for
 * the shared L3 - a directory sharer mask per line.
 */

#ifndef RCNVM_CACHE_CACHE_HH_
#define RCNVM_CACHE_CACHE_HH_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/line.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace rcnvm::cache {

/** Static configuration of one cache level. */
struct CacheConfig {
    std::string name = "cache";
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t lineBytes = 64;
    std::uint32_t ways = 8;

    std::uint32_t numSets() const
    {
        return sizeBytes / (lineBytes * ways);
    }
};

/**
 * The tag/state array of one cache. Timing lives in the hierarchy;
 * this class is purely functional state.
 *
 * Row- and column-oriented lines share the sets (indexed by their
 * own addresses) and are distinguished by the orientation bit during
 * tag match, exactly as described in Sec. 4.3.1.
 *
 * Layout (DESIGN.md section 4m): set scans read a dense array of
 * 4-byte tag words, 0 marking a free way. LRU stamps, line states
 * and - for a directory - sharer masks sit in parallel arrays
 * indexed the same way.
 */
class Cache
{
  public:
    /** Directory sharer mask: one bit per core whose private caches
     *  may hold the line. Kept only by a directory cache. */
    using SharerMask = std::uint32_t;

    /** Cores a sharer mask can name. */
    static constexpr unsigned maxSharers = 32;

    /** Line numbers a tag word can hold. Hierarchy folds every
     *  address onto its memory and refuses a memory of more lines,
     *  so no key it passes in reaches this bound. */
    static constexpr std::uint64_t maxLines = std::uint64_t{1} << 30;

    /** Description of a line evicted by insert(). */
    struct Victim {
        LineKey key;
        MesiState state = MesiState::Invalid;
        std::uint8_t crossing = 0;
        SharerMask sharers = 0; //!< set by a directory cache's insert()
    };

    /** @p directory adds a sharer mask per line (the shared L3), kept
     *  in one more parallel array. */
    explicit Cache(const CacheConfig &config, bool directory = false);

    /** The configuration this cache was built with. */
    const CacheConfig &config() const { return config_; }

    // find/probe/insert are defined inline below: the hierarchy runs
    // several of them per simulated access, and the set scans are
    // small enough that call overhead would dominate them.

    /** Hint the host to pull this key's tag words into its cache.
     *  The L3's tag words (half a megabyte for Table 1) share the
     *  host's caches with the rest of the simulator, so a set scan
     *  often misses them; issuing the prefetch a few hundred
     *  instructions before the scan hides most of that latency. */
    void
    prefetchSet(const LineKey &key) const
    {
        __builtin_prefetch(&tags_[setBase(key)]);
    }

    /** Look up a line; returns nullptr on miss. Updates LRU on hit. */
    CacheLine *
    find(const LineKey &key)
    {
        const std::size_t i = wayOf(key);
        if (i == npos)
            return nullptr;
        lru_[i] = ++lruClock_;
        return &lines_[i];
    }

    /** Look up without disturbing replacement state. */
    const CacheLine *
    probe(const LineKey &key) const
    {
        const std::size_t i = wayOf(key);
        return i == npos ? nullptr : &lines_[i];
    }

    /**
     * Insert a line, evicting the LRU non-pinned way if the set is
     * full. If every way is pinned, the LRU pinned line is unpinned
     * and evicted (counted in the pinnedEvictions statistic). On a
     * directory cache a new line starts with an empty sharer mask, a
     * victim carries its mask out, and re-inserting a live key keeps
     * the key's mask.
     *
     * @param installed when non-null, receives the inserted line
     * @return the evicted victim, if any
     */
    std::optional<Victim>
    insert(const LineKey &key, MesiState state,
           CacheLine **installed = nullptr)
    {
        const std::size_t base = setBase(key);
        const TagWord tag = tagOf(key);

        // One pass over the tag words: match the key and remember the
        // first free way.
        std::size_t target = npos;
        for (std::size_t i = base; i < base + config_.ways; ++i) {
            if (tags_[i] == tag) {
                lines_[i].state = state;
                lru_[i] = ++lruClock_;
                if (installed)
                    *installed = &lines_[i];
                return std::nullopt;
            }
            if (tags_[i] == 0 && target == npos)
                target = i;
        }

        std::optional<Victim> victim;
        if (target == npos) {
            // Evict the LRU non-pinned way; fall back to the LRU
            // pinned way if the whole set is pinned (group
            // over-subscription).
            std::size_t lru_unpinned = npos;
            std::size_t lru_any = base;
            for (std::size_t i = base; i < base + config_.ways; ++i) {
                if (lru_[i] < lru_[lru_any])
                    lru_any = i;
                if (!lines_[i].pinned &&
                    (lru_unpinned == npos ||
                     lru_[i] < lru_[lru_unpinned])) {
                    lru_unpinned = i;
                }
            }
            target = lru_unpinned != npos ? lru_unpinned : lru_any;
            if (lru_unpinned == npos)
                ++pinnedEvictions_;

            const CacheLine &old = lines_[target];
            victim = Victim{keyOf(tags_[target]), old.state,
                            old.crossing};
            if (old.orient == Orientation::Row)
                --rowLines_;
            else
                --columnLines_;
        }

        if (!sharers_.empty()) {
            if (victim)
                victim->sharers = sharers_[target];
            sharers_[target] = 0;
        }
        tags_[target] = tag;
        lines_[target] = CacheLine{key.orient, state, 0, false};
        lru_[target] = ++lruClock_;
        if (key.orient == Orientation::Row)
            ++rowLines_;
        else
            ++columnLines_;
        if (installed)
            *installed = &lines_[target];
        return victim;
    }

    /** Sharer mask of @p line, a line of this directory cache.
     *  Reading or writing it touches no replacement state. */
    SharerMask &
    sharers(const CacheLine &line)
    {
        return sharers_[static_cast<std::size_t>(&line - lines_.data())];
    }

    /** Remove a line if present; returns its pre-invalidation copy. */
    std::optional<Victim> invalidate(const LineKey &key);

    /** Pin or unpin a line; returns false when absent. */
    bool setPinned(const LineKey &key, bool pinned);

    /** Number of valid column-oriented lines (probe filtering). */
    std::uint64_t columnLines() const { return columnLines_; }

    /** Number of valid row-oriented lines. */
    std::uint64_t rowLines() const { return rowLines_; }

    /** Count of valid lines with the given orientation. */
    std::uint64_t
    linesWithOrientation(Orientation o) const
    {
        return o == Orientation::Row ? rowLines_ : columnLines_;
    }

    /** Forced evictions of pinned lines (should stay zero). */
    std::uint64_t pinnedEvictions() const { return pinnedEvictions_; }

  private:
    /** One way's identity: line number, orientation bit and valid
     *  bit, from the most to the least significant; 0 is a free way. */
    using TagWord = std::uint32_t;

    /** "No way" index. */
    static constexpr std::size_t npos = ~std::size_t{0};

    /** Index of @p key's set's first way. Shift/mask rather than
     *  divide/modulo: the constructor demands power-of-two line size
     *  and set count, and two runtime integer divisions here would
     *  otherwise lead every set scan. */
    std::size_t
    setBase(const LineKey &key) const
    {
        return std::size_t{static_cast<unsigned>(
                   (key.addr >> lineShift_) & setMask_)} *
               config_.ways;
    }

    /** @p key's tag word: never 0, since the valid bit is set. */
    TagWord
    tagOf(const LineKey &key) const
    {
        assert((key.addr >> lineShift_) < maxLines);
        return static_cast<TagWord>(
            (key.addr >> lineShift_) << 2 |
            TagWord{key.orient == Orientation::Column} << 1 | 1);
    }

    /** The key a live tag word names. */
    LineKey
    keyOf(TagWord tag) const
    {
        return LineKey{Addr{tag >> 2} << lineShift_,
                       (tag & 2) ? Orientation::Column
                                 : Orientation::Row};
    }

    /** Index of @p key's way, or npos when it is not present. */
    std::size_t
    wayOf(const LineKey &key) const
    {
        const std::size_t base = setBase(key);
        const TagWord tag = tagOf(key);
        for (std::size_t i = base; i < base + config_.ways; ++i) {
            if (tags_[i] == tag)
                return i;
        }
        return npos;
    }

    CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_ = 0; //!< log2(lineBytes)
    std::uint32_t setMask_ = 0;   //!< numSets - 1
    // numSets_ x ways entries each, row-major, indexed alike.
    std::vector<TagWord> tags_;
    std::vector<std::uint64_t> lru_; //!< LRU timestamps
    std::vector<CacheLine> lines_;
    /** Sharer mask per way; empty unless a directory. */
    std::vector<SharerMask> sharers_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t rowLines_ = 0;
    std::uint64_t columnLines_ = 0;
    std::uint64_t pinnedEvictions_ = 0;
};

} // namespace rcnvm::cache

#endif // RCNVM_CACHE_CACHE_HH_
