#include "util/stats.hh"

#include <cmath>
#include <stdexcept>

#include "util/logging.hh"

namespace rcnvm::util {

void
Sampled::merge(const Sampled &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0 || other.min_ < min_)
        min_ = other.min_;
    if (count_ == 0 || other.max_ > max_)
        max_ = other.max_;
    sum_ += other.sum_;
    count_ += other.count_;
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    const double clamped = std::clamp(p, 0.0, 1.0);
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(clamped * static_cast<double>(count_))));
    std::uint64_t cum = 0;
    for (unsigned i = lo_; i < hi_; ++i) {
        cum += buckets_[i];
        if (cum >= rank)
            return static_cast<double>(bucketHigh(i));
    }
    return static_cast<double>(bucketHigh(hi_ - 1));
}

void
Histogram::merge(const Histogram &other)
{
    if (other.k_ != k_)
        rcnvm_panic("merging a histogram with ", other.k_,
                    " sub-bucket bits into one with ", k_);
    for (unsigned i = other.lo_; i < other.hi_; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    lo_ = std::min(lo_, other.lo_);
    hi_ = std::max(hi_, other.hi_);
}

void
Histogram::reset()
{
    for (unsigned i = lo_; i < hi_; ++i)
        buckets_[i] = 0;
    count_ = 0;
    lo_ = bucketCount();
    hi_ = 0;
}

void
StatsMap::set(const std::string &name, double value)
{
    entries_[name] = StatEntry{value, StatKind::Scalar};
}

void
StatsMap::add(const std::string &name, double value)
{
    StatEntry &e = entries_[name];
    e.kind = StatKind::Additive;
    e.value += value;
}

double
StatsMap::get(const std::string &name, double fallback) const
{
    auto it = entries_.find(name);
    return it == entries_.end() ? fallback : it->second.value;
}

double
StatsMap::at(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::out_of_range("unknown statistic: " + name);
    return it->second.value;
}

bool
StatsMap::contains(const std::string &name) const
{
    return entries_.find(name) != entries_.end();
}

StatKind
StatsMap::kindOf(const std::string &name) const
{
    auto it = entries_.find(name);
    return it == entries_.end() ? StatKind::Scalar : it->second.kind;
}

} // namespace rcnvm::util
