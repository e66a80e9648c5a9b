/**
 * @file
 * Lightweight statistics primitives: counters, scalar values,
 * sampled moments, log-linear histograms, and a named map so
 * components can export their statistics to reports.
 */

#ifndef RCNVM_UTIL_STATS_HH_
#define RCNVM_UTIL_STATS_HH_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rcnvm::util {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    /** Increment by @p n (default one event). */
    void inc(std::uint64_t n = 1) { value_ += n; }

    /** Current count. */
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean/min/max of a sampled quantity. */
class Sampled
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (count_ == 1 || v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Fold another sample set into this one (aggregation across
     *  per-channel statistics). */
    void merge(const Sampled &other);

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * A log-linear (HDR-style) histogram of a non-negative integer
 * quantity (latencies in ticks, queue depths). With k sub-bucket
 * bits, every value below 2^k has a bucket of its own, and each
 * octave [2^e, 2^(e+1)) above that is split into 2^k equal buckets,
 * so a bucket is never wider than 1/2^k of the values it holds.
 * Memory is fixed at (65 - k) * 2^k counters, whatever the sample
 * count.
 *
 * k = 0 is the power-of-two layout: bucket 0 counts zeros and bucket
 * i >= 1 counts [2^(i-1), 2^i), so 1 lands in bucket 1, 2 and 3 in
 * bucket 2, 4 in bucket 3. With k = 7, values below 128 are exact
 * and [256, 512) splits into 128 buckets of width 2.
 */
class Histogram
{
  public:
    /** An empty power-of-two (k = 0) histogram. */
    Histogram() : Histogram(0) {}

    /** An empty histogram with @p sub_bucket_bits = k. */
    explicit Histogram(unsigned sub_bucket_bits)
        : k_(sub_bucket_bits),
          buckets_(std::size_t{65 - sub_bucket_bits} << sub_bucket_bits),
          lo_(bucketCount())
    {
    }

    /** The layout's k. */
    unsigned subBucketBits() const { return k_; }

    /** Number of buckets: (65 - k) * 2^k. */
    unsigned bucketCount() const
    {
        return static_cast<unsigned>(buckets_.size());
    }

    /** Bucket index @p v falls into. */
    unsigned
    bucketOf(std::uint64_t v) const
    {
        const unsigned width = static_cast<unsigned>(std::bit_width(v));
        const unsigned shift = width > k_ ? width - k_ - 1 : 0;
        return (shift << k_) + static_cast<unsigned>(v >> shift);
    }

    /** Smallest value bucket @p i accepts (its left edge). */
    std::uint64_t
    bucketLow(unsigned i) const
    {
        const unsigned shift = shiftOf(i);
        return std::uint64_t{i - (shift << k_)} << shift;
    }

    /** Largest value bucket @p i accepts (its inclusive right
     *  edge). */
    std::uint64_t
    bucketHigh(unsigned i) const
    {
        return bucketLow(i) + ((std::uint64_t{1} << shiftOf(i)) - 1);
    }

    /** Record one sample. */
    void
    sample(std::uint64_t v)
    {
        const unsigned b = bucketOf(v);
        ++buckets_[b];
        ++count_;
        lo_ = std::min(lo_, b);
        hi_ = std::max(hi_, b + 1);
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }

    /** Samples in bucket @p i. */
    std::uint64_t bucket(unsigned i) const { return buckets_[i]; }

    /**
     * The @p p quantile (p in [0, 1], clamped) at bucket resolution:
     * the inclusive right edge of the bucket holding the
     * ceil(p * count)-th smallest sample (the nearest rank, at least
     * 1). It never understates that sample and overstates it by less
     * than 1/2^k of its value. 0 when empty.
     */
    double percentile(double p) const;

    /** Highest non-empty bucket index plus one (0 when empty). */
    unsigned usedBuckets() const { return hi_; }

    /** Element-wise accumulation of another histogram; panics when
     *  the two layouts differ. */
    void merge(const Histogram &other);

    /** Drop all samples (clears only the buckets in use). */
    void reset();

  private:
    /** log2 of bucket @p i's width. */
    unsigned
    shiftOf(unsigned i) const
    {
        return (i >> k_) == 0 ? 0 : (i >> k_) - 1;
    }

    unsigned k_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    /** Non-empty buckets lie in [lo_, hi_); lo_ > hi_ when empty. */
    unsigned lo_;
    unsigned hi_ = 0;
};

/** Whether a statistic may be summed across runs. */
enum class StatKind : std::uint8_t {
    Additive, //!< raw event counts: sums are meaningful
    Scalar,   //!< derived values (ratios, means, maxima): never summed
};

/** One named statistic: its value and its kind. */
struct StatEntry {
    double value = 0.0;
    StatKind kind = StatKind::Scalar;
};

/**
 * A flat name → value map of statistics produced by one simulation.
 *
 * Components contribute entries via set()/add(); reports read them
 * back with get() (lenient; absent names read as zero so report code
 * stays simple when a device lacks some statistic) or at() (strict;
 * throws on unknown names so tables cannot silently print zeros for
 * typos).
 *
 * Every entry carries a StatKind: add() produces Additive entries
 * (raw event counts), set() produces Scalar entries (derived values
 * that must never be summed). The stats JSON exports the kinds for
 * readers that combine runs.
 */
class StatsMap
{
  public:
    /** Set (overwrite) a derived statistic; the entry is Scalar. */
    void set(const std::string &name, double value);

    /** Accumulate into a raw-count statistic (creates it at zero);
     *  the entry is Additive. */
    void add(const std::string &name, double value);

    /** Read a statistic; absent names yield @p fallback. */
    double get(const std::string &name, double fallback = 0.0) const;

    /** Strict read: throws std::out_of_range on unknown names. */
    double at(const std::string &name) const;

    /** True when the statistic exists. */
    bool contains(const std::string &name) const;

    /** Kind of @p name (Scalar when absent). */
    StatKind kindOf(const std::string &name) const;

    /** All entries in name order. */
    const std::map<std::string, StatEntry> &entries() const
    {
        return entries_;
    }

  private:
    std::map<std::string, StatEntry> entries_;
};

} // namespace rcnvm::util

#endif // RCNVM_UTIL_STATS_HH_
