/**
 * @file
 * A trace-replaying in-order core with a bounded window of
 * outstanding memory accesses.
 */

#ifndef RCNVM_CPU_CORE_HH_
#define RCNVM_CPU_CORE_HH_

#include "util/unique_function.hh"

#include "cache/hierarchy.hh"
#include "cpu/mem_op.hh"
#include "cpu/op_source.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace rcnvm::cpu {

/**
 * Replays a pull-based operation stream (OpSource) against the cache
 * hierarchy: a fixed plan, a coroutine generator, or a windowed
 * binary trace.
 *
 * The core issues one operation per CPU cycle while fewer than
 * `window` memory accesses are outstanding; Compute ops make it busy
 * for their duration; Fence drains the window. This models the
 * memory-level parallelism of an out-of-order core running the
 * memory-bound query kernels without simulating its pipeline.
 *
 * The hierarchy may refuse an access (miss path saturated); the core
 * then stalls on retry and re-presents the same operation when the
 * hierarchy's retry notification fires.
 */
class Core
{
  public:
    /**
     * @param id        core number (cache port selector)
     * @param eq        simulation event queue
     * @param hierarchy cache hierarchy to access; the core clocks
     *                  itself from its cpuPeriod so the two can
     *                  never be configured apart
     * @param window    maximum outstanding memory accesses
     */
    Core(unsigned id, sim::EventQueue &eq,
         cache::Hierarchy &hierarchy, unsigned window = 8);

    /** Begin consuming @p source; @p on_finish fires when done.
     *  The core pulls operations one at a time, so the stream may be
     *  unbounded (trace replay). The source is borrowed: the caller
     *  must keep it alive until the run completes. The core must be
     *  finished(); calling start from inside the previous stream's
     *  on_finish callback is allowed (service dispatch onto a freed
     *  core). */
    void start(OpSource &source,
               util::UniqueFunction<void(Tick)> on_finish);

    /** Mark every access of subsequently started streams as
     *  latency-class (OLTP) traffic; the flag rides the miss packets
     *  into the channel controller, where the read-priority policy
     *  can act on it. Sticky until changed — dispatchers set it per
     *  request right before start(). */
    void setPriority(bool p) { priority_ = p; }

    /** Current latency-class flag. */
    bool priority() const { return priority_; }

    /** True when the whole stream has completed. */
    bool finished() const { return finished_; }

    /** Number of memory operations issued. */
    std::uint64_t memOps() const { return memOps_.value(); }

    /** Cycles spent stalled with a full window. */
    std::uint64_t stallTicks() const { return stallTicks_.value(); }

    /** Accesses the hierarchy refused (retried later). */
    std::uint64_t retries() const { return retries_.value(); }

    /** Ticks spent stalled waiting for a retry notification. */
    std::uint64_t retryStallTicks() const
    {
        return retryStallTicks_.value();
    }

  private:
    void advance();
    void scheduleAdvance(Tick when);
    void onAccessDone();
    void onRetry();

    unsigned id_;
    sim::EventQueue &eq_;
    cache::Hierarchy &hierarchy_;
    unsigned window_;
    sim::ClockDomain<CpuClk> clock_; //!< from HierarchyConfig:
                                     //!< one shared 2 GHz clock

    OpSource *source_ = nullptr; //!< borrowed from start()
    unsigned outstanding_ = 0;
    Tick readyTick_{0};
    bool advanceScheduled_ = false;
    bool stalledFull_ = false;
    bool stalledRetry_ = false;
    bool priority_ = false;
    bool finished_ = true;
    Tick stallStart_{0};
    Tick retryStallStart_{0};
    util::UniqueFunction<void(Tick)> onFinish_;

    util::Counter memOps_;
    util::Counter stallTicks_;
    util::Counter retries_;
    util::Counter retryStallTicks_;
};

} // namespace rcnvm::cpu

#endif // RCNVM_CPU_CORE_HH_
