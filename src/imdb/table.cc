#include "imdb/table.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rcnvm::imdb {

Table::Table(std::string name, Schema schema, std::uint64_t tuples,
             std::uint64_t seed)
    : name_(std::move(name)), schema_(std::move(schema)),
      tuples_(tuples)
{
    util::Random rng(seed);
    columns_.resize(schema_.fieldCount());
    for (unsigned f = 0; f < schema_.fieldCount(); ++f) {
        if (schema_.field(f).words() != 1)
            continue; // wide fields carry no predicate values
        Column &col = columns_[f];
        col.reserve(tuples_);
        for (std::uint64_t t = 0; t < tuples_; ++t) {
            col.push_back(static_cast<std::int32_t>(
                rng.nextBounded(valueRange)));
        }
    }

    // Chunk min/max summaries, computed once after generation so the
    // RNG draw sequence (and therefore every seeded golden) is
    // untouched.
    chunkStats_.resize(columns_.size());
    for (unsigned f = 0; f < columns_.size(); ++f) {
        const auto &col = columns_[f];
        if (col.empty())
            continue;
        auto &stats = chunkStats_[f];
        stats.resize(chunkCount());
        for (unsigned c = 0; c < stats.size(); ++c) {
            const std::uint64_t t0 = std::uint64_t{c} * chunkTuples;
            const std::uint64_t t1 =
                std::min<std::uint64_t>(t0 + chunkTuples, tuples_);
            ChunkMinMax mm{col[t0], col[t0]};
            for (std::uint64_t t = t0 + 1; t < t1; ++t) {
                mm.min = std::min<std::int64_t>(mm.min, col[t]);
                mm.max = std::max<std::int64_t>(mm.max, col[t]);
            }
            stats[c] = mm;
        }
    }
}

std::int64_t
Table::value(unsigned f, std::uint64_t t) const
{
    if (f >= columns_.size() || columns_[f].empty())
        rcnvm_fatal(name_, ": field ", f, " has no numeric values");
    return columns_[f][t];
}

unsigned
Table::chunkCount() const
{
    return static_cast<unsigned>((tuples_ + chunkTuples - 1) /
                                 chunkTuples);
}

Table::ChunkMinMax
Table::chunkStats(unsigned f, unsigned chunk) const
{
    if (f >= chunkStats_.size() || chunkStats_[f].empty())
        rcnvm_fatal(name_, ": field ", f, " has no chunk statistics");
    if (chunk >= chunkStats_[f].size())
        rcnvm_fatal(name_, ": chunk ", chunk, " of ",
                    chunkStats_[f].size());
    return chunkStats_[f][chunk];
}

std::int64_t
Table::thresholdForGreater(double selectivity) const
{
    if (selectivity <= 0.0)
        return valueRange;
    if (selectivity >= 1.0)
        return -1;
    return static_cast<std::int64_t>(
        static_cast<double>(valueRange) * (1.0 - selectivity));
}

std::vector<bool>
Table::matchGreater(unsigned f, std::int64_t x) const
{
    std::vector<bool> out(tuples_);
    for (std::uint64_t t = 0; t < tuples_; ++t)
        out[t] = value(f, t) > x;
    return out;
}

std::vector<bool>
Table::matchLess(unsigned f, std::int64_t x) const
{
    std::vector<bool> out(tuples_);
    for (std::uint64_t t = 0; t < tuples_; ++t)
        out[t] = value(f, t) < x;
    return out;
}

std::vector<bool>
Table::matchEqual(unsigned f, std::int64_t x) const
{
    std::vector<bool> out(tuples_);
    for (std::uint64_t t = 0; t < tuples_; ++t)
        out[t] = value(f, t) == x;
    return out;
}

} // namespace rcnvm::imdb
