/**
 * @file
 * Chrome-trace (chrome://tracing / Perfetto JSON) event tracer for
 * the packet pipeline: each MemPacket's lifecycle — core issue, MSHR
 * allocation/coalescing, channel queueing, bank service, fill and
 * retry — is recorded as duration ("X") and instant ("i") events
 * grouped by pid (component) and tid (core / bank).
 *
 * Cost model: tracing is OFF by default. The hot-path guard is one
 * global pointer load (`ChromeTracer::active()`); set the
 * RCNVM_CHROME_TRACE environment variable to an output path (or call
 * enable()) to turn it on. Building with -DRCNVM_PACKET_TRACE=OFF
 * compiles every probe out entirely, removing even the pointer load.
 *
 * Time base: simulation ticks are picoseconds; chrome trace
 * timestamps are microseconds, so events are emitted at tick/1e6
 * with fractional precision preserved.
 */

#ifndef RCNVM_UTIL_CHROME_TRACE_HH_
#define RCNVM_UTIL_CHROME_TRACE_HH_

#include <string>
#include <vector>

#include "util/types.hh"

// Compiled in (but runtime-disabled) unless the build says otherwise.
#ifndef RCNVM_PACKET_TRACE
#define RCNVM_PACKET_TRACE 1
#endif

namespace rcnvm::util {

/** Collects trace events in memory; writes JSON on disable()/exit. */
class ChromeTracer
{
  public:
    // Process ids used to group the timeline rows.
    static constexpr unsigned kPidCpu = 1;     //!< tid = core
    static constexpr unsigned kPidCache = 2;   //!< tid = core
    static constexpr unsigned kPidMemBase = 16; //!< +channel; tid = bank

    /** The live tracer, or nullptr when tracing is off. */
    static ChromeTracer *active() { return active_; }

    /** Start tracing into @p path (overwrites any active tracer's
     *  buffered events after flushing them). */
    static void enable(const std::string &path);

    /** Start tracing when RCNVM_CHROME_TRACE names a path; safe to
     *  call repeatedly (only the first call reads the environment).
     *  The tracer is not thread-safe: core::forEachCell calls this
     *  before it starts any worker, and runs a traced grid on the
     *  calling thread alone. */
    static void enableFromEnv();

    /** Flush buffered events to the output file and stop tracing. */
    static void disable();

    /** Record a duration event of @p dur ticks starting at @p start. */
    void
    complete(const char *name, unsigned pid, unsigned tid, Tick start,
             Tick dur, Addr addr)
    {
        events_.push_back(Event{name, start, dur, addr, pid, tid, 'X'});
    }

    /** Record an instant event at @p at. */
    void
    instant(const char *name, unsigned pid, unsigned tid, Tick at,
            Addr addr)
    {
        events_.push_back(Event{name, at, Tick{}, addr, pid, tid, 'i'});
    }

    /** Number of buffered events (tests). */
    std::size_t eventCount() const { return events_.size(); }

  private:
    explicit ChromeTracer(std::string path) : path_(std::move(path)) {}

    void write() const;

    struct Event {
        const char *name; //!< static string (never owned)
        Tick ts;
        Tick dur;
        Addr addr;
        unsigned pid;
        unsigned tid;
        char ph;
    };

    std::string path_;
    std::vector<Event> events_;

    static ChromeTracer *active_;
    static bool envChecked_;
};

} // namespace rcnvm::util

// Probe macros: no-ops when the tracer is compiled out, one pointer
// load + branch when compiled in but disabled.
#if RCNVM_PACKET_TRACE
#define RCNVM_TRACE_COMPLETE(name, pid, tid, start, dur, addr)            \
    do {                                                                  \
        if (auto *rcnvm_tr_ = ::rcnvm::util::ChromeTracer::active())      \
            rcnvm_tr_->complete((name), (pid), (tid), (start), (dur),     \
                                (addr));                                  \
    } while (0)
#define RCNVM_TRACE_INSTANT(name, pid, tid, at, addr)                     \
    do {                                                                  \
        if (auto *rcnvm_tr_ = ::rcnvm::util::ChromeTracer::active())      \
            rcnvm_tr_->instant((name), (pid), (tid), (at), (addr));       \
    } while (0)
#else
#define RCNVM_TRACE_COMPLETE(name, pid, tid, start, dur, addr) ((void)0)
#define RCNVM_TRACE_INSTANT(name, pid, tid, at, addr) ((void)0)
#endif

#endif // RCNVM_UTIL_CHROME_TRACE_HH_
