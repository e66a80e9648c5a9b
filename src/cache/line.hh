/**
 * @file
 * Cache line identity and state for the RC-NVM cache architecture
 * (paper Figure 8): MESI state, the orientation bit, per-8-byte
 * crossing bits, and the pin bit used by group caching.
 */

#ifndef RCNVM_CACHE_LINE_HH_
#define RCNVM_CACHE_LINE_HH_

#include <cstdint>

#include "util/types.hh"

namespace rcnvm::cache {

/** MESI coherence states. */
enum class MesiState : std::uint8_t {
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/**
 * Identity of a cache line: its 64-byte-aligned address expressed in
 * its own orientation's address space, plus the orientation bit.
 * The same physical data cached via row- and column-oriented
 * addresses forms two distinct lines (the synonym problem).
 */
struct LineKey {
    Addr addr = 0;
    Orientation orient = Orientation::Row;

    bool operator==(const LineKey &) const = default;

    /** Build a key from a statically-oriented address; the pair is
     *  consistent by construction. */
    template <Orientation O>
    static LineKey
    of(OrientedAddr<O> a)
    {
        return LineKey{a.value(), O};
    }
};

/**
 * One cache line's state: everything but its identity, which lives
 * in the owning cache's tag array (DESIGN.md section 4m). Four bytes,
 * kept in an array indexed like the tag words, so a set scan reads
 * only tags and a `CacheLine *` stays valid until the way is reused.
 */
struct CacheLine {
    Orientation orient = Orientation::Row;
    MesiState state = MesiState::Invalid;
    std::uint8_t crossing = 0; //!< crossing bit per 8-byte word
    bool pinned = false;       //!< group-caching pin
};

} // namespace rcnvm::cache

#endif // RCNVM_CACHE_LINE_HH_
