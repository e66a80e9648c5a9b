#include "harness.hh"

#include <pthread.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <ctime>
#include <sstream>

#include "util/stats_io.hh"

namespace rcnvm::perfbench {

SpanLog::Scope::Scope(SpanLog *log, const char *name) : log_(log)
{
    if (log_ == nullptr)
        return;
    Span s;
    s.name = name;
    s.parent = log_->open_;
    index_ = static_cast<int>(log_->spans_.size());
    log_->spans_.push_back(std::move(s));
    log_->open_ = index_;
    log_->spans_[index_].start = hostSeconds();
}

SpanLog::Scope::~Scope()
{
    if (log_ == nullptr)
        return;
    Span &s = log_->spans_[index_];
    s.end = hostSeconds();
    if (s.parent >= 0)
        log_->spans_[s.parent].childTime += s.duration();
    log_->open_ = s.parent;
}

std::map<std::string, double>
SpanLog::selfByName() const
{
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.name] += s.self();
    return out;
}

void
Counters::max(const std::string &name, double v)
{
    double &slot = values_[name];
    slot = std::max(slot, v);
}

double
Counters::get(const std::string &name) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

void
Counters::addRun(const util::StatsMap &stats, Tick ticks)
{
    static const char *const kSums[] = {
        "cpu.memOps",          "cpu.retries",
        "cpu.stallTicks",      "cache.accesses",
        "cache.l1Hits",        "cache.l2Hits",
        "cache.l3Hits",        "cache.llcMisses",
        "cache.cohInvalidations", "cache.writebacks",
        "cache.mshrCoalesced", "cache.retries",
        "cache.synonymProbes", "mem.requests",
        "mem.writes",          "mem.bufferHits",
        "mem.orientationSwitches", "mem.rejectedIssues",
    };
    for (const char *name : kSums)
        add(name, stats.get(name));
    // Averages recombine weighted by what they average over: queue
    // wait per request, bus utilisation per simulated tick.
    const double requests = stats.get("mem.requests");
    const double t = static_cast<double>(ticks.value());
    add("mem.queueWaitTicksTotal",
        stats.get("mem.avgQueueWaitTicks") * requests);
    add("mem.busBusyWeighted", stats.get("mem.busUtilization") * t);
    add("sim.ticks", t);
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
runDigest(const std::string &label, Tick ticks,
          const util::StatsMap &stats)
{
    std::ostringstream os;
    util::writeStatsJson(os, stats, label, ticks);
    return fnv1a(os.str());
}

void
fail(Cell &cell, const std::string &why)
{
    if (cell.failure.empty())
        cell.failure = why;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

namespace {

/** A ring of the latest samples: 27 minutes at 40 Hz, so a block
 *  longer than that uses its latest samples only. Pages that no
 *  sample reaches are never touched. */
constexpr std::size_t kMaxSamples = 1 << 16;
/** Dependent hash rounds per sample; about kSampleSeconds. */
constexpr int kSampleRounds = 400000;
/** Fewest samples a block's factor is taken from. */
constexpr std::size_t kMinSamples = 5;

double samples[kMaxSamples];
std::atomic<std::size_t> samplesTaken{0};
volatile std::uint64_t sampleSink; //!< keeps the chain's result live
struct sigaction previousAction;

double
elapsed(const timespec &a, const timespec &b)
{
    return static_cast<double>(b.tv_sec - a.tv_sec) +
           static_cast<double>(b.tv_nsec - a.tv_nsec) * 1e-9;
}

/** Time one chain of hash rounds. Async-signal-safe. */
double
sampleOnce()
{
    timespec a{}, b{};
    clock_gettime(CLOCK_MONOTONIC, &a);
    std::uint64_t s = 7;
    std::uint64_t acc = 0;
    for (int i = 0; i < kSampleRounds; ++i) {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        acc += (z ^ (z >> 31)) >> 7;
    }
    sampleSink = acc;
    clock_gettime(CLOCK_MONOTONIC, &b);
    return elapsed(a, b);
}

void
record(double dt)
{
    const std::size_t n = samplesTaken.load(std::memory_order_relaxed);
    samples[n % kMaxSamples] = dt;
    samplesTaken.store(n + 1, std::memory_order_release);
}

void
onAlarm(int)
{
    const int saved = errno;
    record(sampleOnce());
    errno = saved;
}

void
setTimer(long periodUs)
{
    itimerval t{};
    t.it_interval.tv_usec = periodUs;
    t.it_value.tv_usec = periodUs;
    setitimer(ITIMER_REAL, &t, nullptr);
}

} // namespace

CalibratedClock::CalibratedClock()
{
    struct sigaction sa {};
    sa.sa_handler = onAlarm;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGALRM, &sa, &previousAction);
    setTimer(kSamplePeriodUs);
}

CalibratedClock::~CalibratedClock()
{
    setTimer(0);
    sigaction(SIGALRM, &previousAction, nullptr);
}

std::size_t
CalibratedClock::sampleCount()
{
    return samplesTaken.load(std::memory_order_acquire);
}

double
CalibratedClock::factorSince(std::size_t first)
{
    // The handler must not record while this thread does.
    sigset_t alarm, old;
    sigemptyset(&alarm);
    sigaddset(&alarm, SIGALRM);
    pthread_sigmask(SIG_BLOCK, &alarm, &old);
    while (sampleCount() - first < kMinSamples)
        record(sampleOnce());
    pthread_sigmask(SIG_SETMASK, &old, nullptr);

    const std::size_t last = sampleCount();
    std::vector<double> v;
    for (std::size_t i = std::max(first, last - std::min(last, kMaxSamples));
         i < last; ++i)
        v.push_back(samples[i % kMaxSamples]);
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return kSampleSeconds / v[v.size() / 2];
}

} // namespace rcnvm::perfbench
