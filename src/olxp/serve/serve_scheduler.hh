/**
 * @file
 * The OLXP scheduler (DESIGN.md 4d, 4i).
 *
 * Serves open-loop OLTP and closed-loop scan tenants on one machine
 * through its service primitives (arrival events + startOnCore +
 * serve), with three serving-layer mechanisms:
 *
 *  - Plan optimization: backfill scans are described declaratively
 *    (ScanQuery) and compiled through the PlanOptimizer, which
 *    prunes chunks by min/max summary and dead columns by
 *    projection pushdown. The optimizer-off path is
 *    result-identical.
 *  - Tenant classes and SLO-aware dispatch: every request carries
 *    its tenant's class. OLTP-latency requests dispatch onto any
 *    idle core with the priority flag set (the read-priority channel
 *    policy serves their misses first); backfill classes are limited
 *    to a dynamic slot count. A periodic control loop measures OLTP
 *    p99 over the last window (a second latency histogram, reset at
 *    every window edge) and preempts backfill dispatch slots while
 *    the target is breached, growing them back when latency
 *    recovers.
 *  - Shared scans: a backfill tenant's N streams attach to one
 *    shared cursor. The cursor issues bounded segments; each
 *    completed segment is credited to every attached stream, so 10^3
 *    streams cost one scan's worth of memory traffic per pass.
 *
 * Admission is a per-tenant token bucket over one bounded run queue.
 * Open-loop (OLTP) arrivals beyond budget or bound are rejected and
 * counted; closed-loop segments are parked and deterministically
 * retried — deferred, never dropped.
 *
 * With ServeConfig::oltpFirst off (FIFO mode) the class-aware
 * dispatch is skipped: requests run in admission order, unflagged.
 * One OLTP tenant plus one unoptimized single-field scan tenant in
 * that mode is the 4d service.
 *
 * Everything runs on the machine's event queue, so all serve.*
 * statistics are deterministic for a given seed.
 */

#ifndef RCNVM_OLXP_SERVE_SERVE_SCHEDULER_HH_
#define RCNVM_OLXP_SERVE_SERVE_SCHEDULER_HH_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "olxp/generators.hh"
#include "olxp/serve/plan_optimizer.hh"
#include "olxp/serve/tenant.hh"
#include "util/random.hh"
#include "util/stats.hh"

namespace rcnvm::olxp::serve {

/** Configuration of one serving run. */
struct ServeConfig {
    std::vector<TenantConfig> tenants;

    /** Chunk/column pruning on (the off path is result-identical
     *  and used by the optimizer property tests). */
    bool optimizer = true;

    /** OLTP requests dispatch ahead of backfill, with the packet
     *  priority flag set. false = FIFO mode: every admitted request
     *  joins one run queue in admission order and none is flagged
     *  (the DESIGN.md 4d service); requires slo = false. */
    bool oltpFirst = true;

    /** SLO-aware dispatch on; off = backfill may fill every core
     *  (the unprotected comparator of the bench). */
    bool slo = true;
    /** OLTP p99 target in ticks; the control loop preempts backfill
     *  slots while the windowed p99 exceeds it. */
    Tick sloTarget{2000000};
    /** Control-loop period in ticks. */
    Tick sloPeriod{500000};

    /** Field pool of the shared scans: a segment's template touches
     *  fields [0, scanFields) and the optimizer prunes down to the
     *  two the aggregate consumes. */
    unsigned scanFields = 4;

    /** Generators stop at this tick; queued work then drains. */
    Tick horizon{20000000};
    /** OLTP percentile measurement starts here: arrivals before this
     *  tick are served (and feed the SLO window) but stay out of
     *  serve.oltpLatency, so a protected run's tail reflects the
     *  converged control loop, not its warm-up transient. */
    Tick measureFrom{0};
    /** Stop each shared cursor after this many segments (0 = run to
     *  the horizon). A capped run executes exactly the same segment
     *  sequence whatever the timing, which is what lets the
     *  result-identity checks compare optimizer-on and -off runs
     *  checksum for checksum. */
    std::uint64_t maxSegmentsPerGroup = 0;
    /** Bounded run queue shared by all tenants. */
    unsigned runQueueCapacity = 256;
    /** Seed; 0 uses the machine's (RCNVM_SEED-controlled) seed. */
    std::uint64_t seed = 0;
};

/** Outcome of one serving run. */
struct ServeResult {
    cpu::RunResult run;

    std::uint64_t oltpGenerated = 0;
    std::uint64_t oltpCompleted = 0;
    std::uint64_t oltpRejected = 0;
    std::uint64_t segmentsCompleted = 0; //!< shared-scan segments
    std::uint64_t streamScans = 0; //!< per-stream segment credits
    std::uint64_t backfillDenied = 0; //!< parked (later retried)

    std::uint64_t chunksScanned = 0;
    std::uint64_t chunksPruned = 0;
    std::uint64_t colsPruned = 0;

    std::uint64_t sloBreaches = 0;

    /** OLTP latency percentiles in ticks, read from the
     *  serve.oltpLatency histogram (the same values as the
     *  serve.oltpLatency{P50,P95,P99} stats): at most 1/128 above
     *  the nearest-rank sample. */
    double oltpP50 = 0, oltpP95 = 0, oltpP99 = 0;

    /** Host-side result merged over every completed segment: the
     *  pruned-vs-unpruned identity oracle. */
    ScanResult scanChecksum;

    /** Completed shared-scan segments per microsecond. */
    double
    backfillThroughput() const
    {
        const double us =
            static_cast<double>(run.ticks.value()) / 1.0e6;
        return us > 0 ? static_cast<double>(segmentsCompleted) / us
                      : 0;
    }
};

/**
 * One serving run over one machine. Construction registers the
 * serve.* statistics into the machine's registry (the scheduler must
 * outlive later snapshots):
 *
 *   serve.oltpLatency                log-linear histogram (ticks,
 *                                    arrivals from measureFrom on)
 *   serve.oltpLatency{P50,P95,P99}   formula percentiles
 *   serve.oltpGenerated/Completed/Rejected     counters
 *   serve.segmentsCompleted / streamScans      counters
 *   serve.backfillDenied                       counter
 *   serve.chunksScanned / chunksPruned / colsPruned  counters
 *   serve.scanMatches / scanSum       result-checksum counters
 *   serve.sloBreaches                 counter
 *   serve.backfillSlots               gauge (current slot count)
 *   serve.<tenant>.admitted/denied/completed   per-tenant counters
 */
class ServeScheduler
{
  public:
    ServeScheduler(cpu::Machine &machine,
                   const workload::PlacedDatabase &pd,
                   const ServeConfig &config);

    /** Prime every tenant, serve to the horizon, drain, collect. */
    ServeResult run();

    /** The optimizer in use (tests inspect pruning counters). */
    const PlanOptimizer &optimizer() const { return optimizer_; }

    /** Current backfill dispatch slots (tests drive the loop). */
    unsigned backfillSlots() const { return backfillSlots_; }

    /** Backfill dispatch slots the control loop never preempts. */
    static constexpr unsigned backfillFloor = 1;

    /** Requests parked awaiting budget or queue space. */
    std::size_t parkedCount() const { return parked_.size(); }

  private:
    /** Sub-bucket bits of the OLTP latency histograms: a percentile
     *  reads at most 1/128 above its sample, fine enough for the
     *  1.15x SLO target. */
    static constexpr unsigned kLatencySubBucketBits = 7;

    /** One admitted (or parked) unit of work. */
    struct ServeRequest {
        unsigned tenant = 0;
        cpu::OpStream ops; //!< generated only as its core pulls
        /** Set at dispatch; the core borrows it until completion. */
        std::optional<cpu::StreamOpSource> source;
        Tick arrival{0};
        bool backfill = false;
        int group = -1;          //!< shared-scan group, -1 = OLTP
        std::uint64_t tuples = 0; //!< segment length
        ScanResult result;        //!< host-side segment result
    };

    /** One shared scan cursor with its attached streams. */
    struct ScanGroup {
        unsigned tenant = 0;
        unsigned streams = 1;
        std::uint64_t cursor = 0;
        std::uint64_t issued = 0; //!< segments generated so far
        unsigned inFlight = 0; //!< queued + parked + executing
        util::Random rng;      //!< predicate/field draws

        ScanGroup(unsigned tenant_ix, unsigned stream_count,
                  std::uint64_t seed)
            : tenant(tenant_ix),
              streams(stream_count == 0 ? 1 : stream_count),
              rng(seed)
        {
        }
    };

    /** Per-tenant runtime state. */
    struct TenantState {
        TenantConfig cfg;
        TokenBucket bucket;
        int group = -1; //!< backfill classes only
        std::optional<OltpGenerator> oltp;

        util::Counter admitted;
        util::Counter denied;
        util::Counter completed;

        TenantState(const TenantConfig &c, double rate)
            : cfg(c), bucket(rate, c.tokenBurst)
        {
        }
    };

    void registerStats();
    std::size_t queuedTotal() const
    {
        return oltpQueue_.size() + runQueue_.size();
    }

    void scheduleOltp(unsigned ti);
    void onOltpArrival(unsigned ti);

    /** Build the next segment query of @p g (advances the cursor and
     *  the group RNG). */
    ScanQuery nextSegment(ScanGroup &g);
    /** Top the group up to its segment-parallelism bound. */
    void pumpGroup(unsigned gi);
    /** Admit a backfill segment: budget + queue bound, else park. */
    void admitBackfill(ServeRequest request);
    /** Move parked requests into freed budget/queue space. */
    void admitParked();
    /** Schedule a deterministic budget-retry when tokens ran out. */
    void scheduleRetry(unsigned ti);

    void dispatch();
    void onComplete(unsigned core, Tick finish);
    void sloTick();

    cpu::Machine &machine_;
    const workload::PlacedDatabase &pd_;
    ServeConfig cfg_;
    PlanOptimizer optimizer_;
    std::uint64_t baseSeed_;

    std::vector<TenantState> tenants_;
    std::vector<ScanGroup> groups_;

    /** Admitted OLTP requests (oltpFirst mode only). */
    std::deque<ServeRequest> oltpQueue_;
    /** Admitted backfill segments — in FIFO mode, every admitted
     *  request — in admission order. */
    std::deque<ServeRequest> runQueue_;
    std::deque<ServeRequest> parked_;
    std::vector<std::optional<ServeRequest>> executing_; //!< per core
    unsigned inFlightCount_ = 0;
    unsigned backfillBusy_ = 0;
    unsigned backfillSlots_ = 1;
    bool retryScheduled_ = false;

    /** Consecutive healthy SLO windows; backfill regrows only after
     *  two in a row (shrink fast, grow slow). */
    unsigned healthyStreak_ = 0;
    /** Breach ceiling: a breach at slot level L pins growth to L-1
     *  until the probe countdown expires, so the loop re-probes the
     *  known-breaching level rarely instead of every few windows —
     *  each probe window spends tail budget. The interval doubles on
     *  every breach (capped), so a converged loop probes ever more
     *  rarely instead of periodically re-spending the budget. */
    unsigned slotCeil_ = 1;
    unsigned probeCountdown_ = 0;
    unsigned probeInterval_ = 8;

    /** OLTP latency (ticks) of arrivals from measureFrom on: the
     *  stats and ServeResult percentiles. */
    util::Histogram oltpLatency_{kLatencySubBucketBits};
    /** OLTP latency since the last SLO window edge. */
    util::Histogram sloWindow_{kLatencySubBucketBits};
    util::Counter oltpGenerated_;
    util::Counter oltpCompleted_;
    util::Counter oltpRejected_;
    util::Counter segmentsCompleted_;
    util::Counter streamScans_;
    util::Counter backfillDenied_;
    util::Counter scanMatches_;
    util::Counter scanSum_;
    util::Counter sloBreaches_;
    ScanResult scanChecksum_;
};

} // namespace rcnvm::olxp::serve

#endif // RCNVM_OLXP_SERVE_SERVE_SCHEDULER_HH_
