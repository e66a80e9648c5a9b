/**
 * @file
 * Measurement scaffolding of the repository benchmark: host clocks,
 * spans recorded around calls into the simulator's layers, per-run
 * results with their simulated-output digests, and the counters the
 * per-layer metrics are derived from.
 *
 * Spans live only in the benchmark's own files: each one brackets a
 * public call (TableSet::standard, Machine's constructor, run, ...),
 * so the simulator itself records nothing.
 */

#ifndef RCNVM_PERFBENCH_HARNESS_HH_
#define RCNVM_PERFBENCH_HARNESS_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hh"
#include "util/types.hh"

namespace rcnvm::perfbench {

/** Host seconds since an arbitrary fixed origin (monotonic). */
inline double
hostSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

/**
 * In-memory span log. A span has a name, a start, an end and the
 * span that was open when it began (its parent). A span's self time
 * is its duration minus the durations of its direct children.
 */
class SpanLog
{
  public:
    struct Span {
        std::string name;
        int parent = -1;
        double start = 0;
        double end = 0;
        double childTime = 0;

        double duration() const { return end - start; }
        double self() const { return duration() - childTime; }
    };

    /** Closes its span on destruction; a no-op without a log. */
    class Scope
    {
      public:
        Scope(SpanLog *log, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        int index_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of self times per span name. */
    std::map<std::string, double> selfByName() const;

  private:
    std::vector<Span> spans_;
    int open_ = -1; //!< innermost open span
};

/** Additive named counters (sums, or maxima via max()). */
class Counters
{
  public:
    void add(const std::string &name, double v) { values_[name] += v; }
    void max(const std::string &name, double v);
    double get(const std::string &name) const;

    /** Accumulate the layer counters of one machine run's stats. */
    void addRun(const util::StatsMap &stats, Tick ticks);

  private:
    std::map<std::string, double> values_;
};

/** One simulated run (a "cell") of a workload repetition. */
struct Cell {
    std::string label;
    std::uint64_t digest = 0; //!< ticks + stats JSON (+ extras)
    double memOps = 0;
    std::string failure; //!< empty when every check passed
};

/** One repetition of a workload's body. */
struct Rep {
    std::vector<Cell> cells;
    Counters counters; //!< layer counters (traced repetitions)
};

/** FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 14695981039346656037ull);

/** Digest of one run's simulated output: its ticks and its stats
 *  as the program's own JSON writer prints them. */
std::uint64_t runDigest(const std::string &label, Tick ticks,
                        const util::StatsMap &stats);

/** Sets a cell's failure unless one is already recorded. */
void fail(Cell &cell, const std::string &why);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * Calibration against host drift. A shared host's speed moves by tens
 * of percent, both in phases that last minutes and from one second to
 * the next, so two runs of the same code differ by more than the
 * changes the benchmark must see.
 *
 * While a CalibratedClock exists, a SIGALRM timer interrupts the
 * process every kSamplePeriodUs microseconds, and the handler times a
 * fixed chain of integer hash rounds on whatever CPU the program runs
 * on at that moment. The chain uses nothing from the simulator, so no
 * change to the simulator moves it, and it touches no memory, so it
 * pollutes no cache and does not move peak RSS. A block of work is
 * scaled by kSampleSeconds over the median sample taken while it ran:
 * calibrated times are seconds at the host speed at which one sample
 * takes kSampleSeconds.
 */
constexpr long kSamplePeriodUs = 25000;
constexpr double kSampleSeconds = 0.0005;

class CalibratedClock
{
  public:
    CalibratedClock();  //!< arms the sampling timer
    ~CalibratedClock(); //!< disarms it and restores the old handler
    CalibratedClock(const CalibratedClock &) = delete;
    CalibratedClock &operator=(const CalibratedClock &) = delete;

    /** Run @p block, which records the host seconds of its timed
     *  pieces into @p raw, and append their calibrated times to
     *  @p out. */
    template <class Block>
    void
    measure(Block &&block, std::vector<double> &out)
    {
        const std::size_t first = sampleCount();
        std::vector<double> raw;
        block(raw);
        const double factor = factorSince(first);
        factors_.push_back(factor);
        for (const double t : raw)
            out.push_back(t * factor);
    }

    /** Every factor used so far (calibrated ÷ host seconds). */
    const std::vector<double> &factors() const { return factors_; }

  private:
    static std::size_t sampleCount();

    /** kSampleSeconds over the median sample since @p first; samples
     *  in place first when the block was too short to get a few. */
    double factorSince(std::size_t first);

    std::vector<double> factors_;
};

} // namespace rcnvm::perfbench

#endif // RCNVM_PERFBENCH_HARNESS_HH_
