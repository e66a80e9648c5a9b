#include "cache/cache.hh"

#include <algorithm>
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
    const std::size_t entries = std::size_t{numSets_} * config_.ways;
    tags_.resize(entries);
    lru_.resize(entries);
    lines_.resize(entries);
    if (directory)
        sharers_.resize(entries);
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

void
Cache::reset()
{
    // Zeroing the tag words frees every way; a way's other fields are
    // rewritten when insert() reuses it. The LRU clock keeps running,
    // as only live ways' stamps are ever compared.
    std::fill(tags_.begin(), tags_.end(), TagWord{0});
    rowLines_ = 0;
    columnLines_ = 0;
    pinnedEvictions_ = 0;
}

} // namespace rcnvm::cache
