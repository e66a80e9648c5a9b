/**
 * @file
 * A single set-associative cache level with LRU replacement,
 * orientation-aware tags, crossing-bit storage, pinning, and - for
 * the shared L3 - a directory sharer mask per line.
 */

#ifndef RCNVM_CACHE_CACHE_HH_
#define RCNVM_CACHE_CACHE_HH_

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
 */
class Cache
{
  public:
    /** Directory sharer mask: one bit per core whose private caches
     *  may hold the line. Kept only by a directory cache. */
    using SharerMask = std::uint32_t;

    /** Cores a sharer mask can name. */
    static constexpr unsigned maxSharers = 32;

    /** Description of a line evicted by insert(). */
    struct Victim {
        LineKey key;
        MesiState state = MesiState::Invalid;
        std::uint8_t crossing = 0;
        SharerMask sharers = 0; //!< set by a directory cache's insert()
    };

    /** @p directory adds a sharer mask per line (the shared L3). It is
     *  kept beside the tag array, so CacheLine and set scans stay the
     *  same size. */
    explicit Cache(const CacheConfig &config, bool directory = false);

    /** The configuration this cache was built with. */
    const CacheConfig &config() const { return config_; }

    // find/probe/insert are defined inline below: the hierarchy runs
    // several of them per simulated access, and the set scans are
    // small enough that call overhead would dominate them.

    /** Hint the host to pull this key's set into its cache. The tag
     *  arrays are megabytes, so a set scan is usually a host-memory
     *  miss; issuing the prefetch a few hundred instructions before
     *  the scan hides most of that latency. */
    void
    prefetchSet(const LineKey &key) const
    {
        const auto *p = reinterpret_cast<const char *>(
            &lines_[std::size_t{setIndex(key)} * config_.ways]);
        // A set spans several host cache lines (16 ways x 24 bytes =
        // six of them); prefetch the whole span, not just the first.
        const std::size_t bytes = sizeof(CacheLine) * config_.ways;
        for (std::size_t off = 0; off < bytes; off += 64)
            __builtin_prefetch(p + off);
    }

    /** Look up a line; returns nullptr on miss. Updates LRU on hit. */
    CacheLine *
    find(const LineKey &key)
    {
        const unsigned set = setIndex(key);
        CacheLine *base = &lines_[std::size_t{set} * config_.ways];
        for (unsigned w = 0; w < config_.ways; ++w) {
            CacheLine &line = base[w];
            if (live(line) && line.tag == key.addr &&
                line.orient == key.orient) {
                line.lru = ++lruClock_;
                return &line;
            }
        }
        return nullptr;
    }

    /** Look up without disturbing replacement state. */
    const CacheLine *
    probe(const LineKey &key) const
    {
        const unsigned set = setIndex(key);
        const CacheLine *base = &lines_[std::size_t{set} * config_.ways];
        for (unsigned w = 0; w < config_.ways; ++w) {
            const CacheLine &line = base[w];
            if (live(line) && line.tag == key.addr &&
                line.orient == key.orient) {
                return &line;
            }
        }
        return nullptr;
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
        const unsigned set = setIndex(key);
        CacheLine *base = &lines_[std::size_t{set} * config_.ways];

        // One pass: match the key, remember the first free way, and
        // keep the LRU candidates ready in case the set is all live.
        CacheLine *target = nullptr;
        CacheLine *lru_unpinned = nullptr;
        CacheLine *lru_any = nullptr;
        for (unsigned w = 0; w < config_.ways; ++w) {
            CacheLine &line = base[w];
            if (live(line)) {
                if (line.tag == key.addr &&
                    line.orient == key.orient) {
                    line.state = state;
                    line.lru = ++lruClock_;
                    if (installed)
                        *installed = &line;
                    return std::nullopt;
                }
                if (!lru_any || line.lru < lru_any->lru)
                    lru_any = &line;
                if (!line.pinned &&
                    (!lru_unpinned || line.lru < lru_unpinned->lru)) {
                    lru_unpinned = &line;
                }
            } else if (!target) {
                target = &line;
            }
        }

        std::optional<Victim> victim;
        if (!target) {
            // Evict the LRU non-pinned way; fall back to the LRU
            // pinned way if the whole set is pinned (group
            // over-subscription).
            target = lru_unpinned ? lru_unpinned : lru_any;
            if (!lru_unpinned)
                ++pinnedEvictions_;

            victim =
                Victim{target->key(), target->state, target->crossing};
            if (target->orient == Orientation::Row)
                --rowLines_;
            else
                --columnLines_;
        }

        if (!sharers_.empty()) {
            SharerMask &mask = sharers(*target);
            if (victim)
                victim->sharers = mask;
            mask = 0;
        }
        target->tag = key.addr;
        target->orient = key.orient;
        target->state = state;
        target->crossing = 0;
        target->pinned = false;
        target->epoch = epoch_;
        target->lru = ++lruClock_;
        if (key.orient == Orientation::Row)
            ++rowLines_;
        else
            ++columnLines_;
        if (installed)
            *installed = target;
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

    /** Drop all lines and statistics. */
    void reset();

  private:
    /** Shift/mask rather than divide/modulo: the constructor demands
     *  power-of-two line size and set count, and two runtime integer
     *  divisions here would otherwise lead every set scan. */
    unsigned
    setIndex(const LineKey &key) const
    {
        return static_cast<unsigned>((key.addr >> lineShift_) &
                                     setMask_);
    }

    /** A line counts as present only when it carries the current
     *  reset generation; reset() bumps the generation instead of
     *  touching every entry of the (possibly megabyte-sized) array. */
    bool
    live(const CacheLine &line) const
    {
        return line.epoch == epoch_ &&
               line.state != MesiState::Invalid;
    }

    CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_ = 0; //!< log2(lineBytes)
    std::uint32_t setMask_ = 0;   //!< numSets - 1
    std::vector<CacheLine> lines_; //!< numSets_ x ways, row-major
    /** Sharer mask per entry of lines_; empty unless a directory. */
    std::vector<SharerMask> sharers_;
    std::uint32_t epoch_ = 0;      //!< current reset generation
    std::uint64_t lruClock_ = 0;
    std::uint64_t rowLines_ = 0;
    std::uint64_t columnLines_ = 0;
    std::uint64_t pinnedEvictions_ = 0;
};

} // namespace rcnvm::cache

#endif // RCNVM_CACHE_CACHE_HH_
