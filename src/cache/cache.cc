#include "cache/cache.hh"

#include <bit>

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace rcnvm::cache {

Cache::Cache(const CacheConfig &config, bool directory)
    : config_(config), numSets_(config.numSets())
{
    if (!util::isPowerOfTwo(numSets_))
        rcnvm_fatal(config_.name, ": set count must be a power of two");
    if (!util::isPowerOfTwo(config_.lineBytes))
        rcnvm_fatal(config_.name, ": line size must be a power of two");
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(config_.lineBytes));
    setMask_ = numSets_ - 1;
    lines_.resize(std::size_t{numSets_} * config_.ways);
    if (directory)
        sharers_.resize(lines_.size());
}

std::optional<Cache::Victim>
Cache::invalidate(const LineKey &key)
{
    CacheLine *line = find(key);
    if (!line)
        return std::nullopt;
    Victim v{line->key(), line->state, line->crossing};
    if (line->orient == Orientation::Row)
        --rowLines_;
    else
        --columnLines_;
    line->state = MesiState::Invalid;
    line->crossing = 0;
    line->pinned = false;
    return v;
}

bool
Cache::setPinned(const LineKey &key, bool pinned)
{
    CacheLine *line = find(key);
    if (!line)
        return false;
    line->pinned = pinned;
    return true;
}

void
Cache::reset()
{
    // O(1): advancing the generation orphans every line at once; the
    // LRU clock keeps running so stale timestamps never resurface.
    // A full sweep is only needed on the (practically unreachable)
    // generation wrap-around.
    if (++epoch_ == 0) {
        for (auto &line : lines_)
            line = CacheLine{};
        lruClock_ = 0;
    }
    rowLines_ = 0;
    columnLines_ = 0;
    pinnedEvictions_ = 0;
}

} // namespace rcnvm::cache
