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
    if (config_.ways > maxWays)
        rcnvm_fatal(config_.name, ": ", config_.ways,
                    " ways exceed the ", maxWays,
                    " an LRU order word ranks");
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(config_.lineBytes));
    setMask_ = numSets_ - 1;
    const std::size_t entries = std::size_t{numSets_} * config_.ways;
    tags_.resize(entries);
    lines_.resize(entries);
    if (directory)
        sharers_.resize(entries);
    order_.assign(numSets_, initialOrder);
}

std::optional<Cache::Victim>
Cache::invalidate(const LineKey &key)
{
    CacheLine *line = find(key);
    if (!line)
        return std::nullopt;
    Victim v{key, line->state, line->crossing};
    if (line->orient == Orientation::Row)
        --rowLines_;
    else
        --columnLines_;
    // A zero tag word frees the way; insert() rewrites the rest.
    tags_[static_cast<std::size_t>(line - lines_.data())] = 0;
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

} // namespace rcnvm::cache
