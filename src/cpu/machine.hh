/**
 * @file
 * The full simulated machine: cores, cache hierarchy, and one of the
 * four memory devices, assembled per the Table-1 configuration.
 */

#ifndef RCNVM_CPU_MACHINE_HH_
#define RCNVM_CPU_MACHINE_HH_

#include <memory>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "cpu/mem_op.hh"
#include "mem/hybrid_tier.hh"
#include "mem/memory_system.hh"
#include "sim/epoch_sampler.hh"
#include "sim/event_queue.hh"
#include "util/random.hh"
#include "util/stat_registry.hh"
#include "util/stats.hh"

namespace rcnvm::cpu {

/** Machine-level configuration. */
struct MachineConfig {
    mem::DeviceKind device = mem::DeviceKind::RcNvm;
    /** Device timing override (Figure-22 sensitivity sweeps). */
    std::optional<mem::TimingParams> timing;
    cache::HierarchyConfig hierarchy;
    unsigned window = 8; //!< outstanding accesses per core
    bool salp = false;   //!< subarray-level parallelism extension
    unsigned memQueueCapacity = 32; //!< per-channel queue depth
    /** Controller request-selection policy (FR-FCFS by default). */
    mem::SchedPolicyKind schedPolicy = mem::SchedPolicyKind::FrFcfs;
    /** Hybrid DRAM-fronting-NVM tier; disabled by default, in which
     *  case the machine is the classic single-device build and every
     *  historical golden is byte-identical. */
    mem::HybridTierConfig tier;
    /** Memory geometry override (channel-scaling studies; defaults
     *  to the device's Table-1 preset). */
    std::optional<mem::Geometry> geometry;
    /** Threads simulating one machine: always 1, since every
     *  machine runs on a single event queue (DESIGN.md section 4f).
     *  Reports print it next to the host's CPU count. */
    static constexpr unsigned threads = 1;
    /** Epoch-sample period in ticks; 0 disables the time series. */
    Tick epochTicks{0};
    /**
     * Seed for stochastic components attached to this machine (the
     * OLXP service generators default to it). RCNVM_SEED overrides
     * the built-in default, so one environment variable makes every
     * experiment reproducible end to end.
     */
    std::uint64_t seed = util::envSeed(42);
};

/** Result of one simulation run. */
struct RunResult {
    Tick ticks{0}; //!< wall-clock of the slowest core
    util::StatsMap stats;
    /** Per-epoch time series (empty unless epochTicks was set). */
    sim::EpochSeries series;

    /** Execution time in CPU cycles (2 GHz). */
    double cycles() const { return static_cast<double>(ticks.value()) / 500.0; }

    /** Execution time in nanoseconds. */
    double ns() const { return ticksToNs(ticks); }
};

/**
 * Owns the event queue and all components of one simulated machine.
 * A machine can run several plans in sequence; state (caches, bank
 * buffers) persists between runs unless reset() is called.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    /** The configuration the machine was built with. */
    const MachineConfig &config() const { return config_; }

    /** The device kind this machine models. */
    mem::DeviceKind device() const { return config_.device; }

    /** Capabilities of the memory device. */
    const mem::DeviceCaps &caps() const { return memory_->caps(); }

    /** The device address map (used by query compilation). */
    const mem::AddressMap &map() const { return memory_->map(); }

    /**
     * Replay one plan per core (plans.size() <= cores; remaining
     * cores stay idle) and return timing plus merged statistics:
     * runSources() over one PlanOpSource per plan.
     */
    RunResult run(const std::vector<AccessPlan> &plans);

    /** Convenience: run a single-core plan. */
    RunResult run(const AccessPlan &plan);

    /**
     * Replay one pull-based operation stream per core
     * (sources.size() <= cores; a nullptr entry or an already
     * exhausted source leaves that core idle). A core consumes its
     * source one operation at a time, so the backing data may be a
     * coroutine generator or an mmap-windowed multi-GB trace instead
     * of a materialised plan. Replaying the same operation sequence
     * produces the same events — and therefore byte-identical
     * statistics and the same eventQueue().executed() count —
     * whatever the source.
     */
    RunResult runSources(const std::vector<OpSource *> &sources);

    // --- Service-mode primitives (the OLXP scheduler). Instead of
    // --- replaying one fixed set of streams, a client seeds the
    // --- event queue with arrival events, starts streams on cores as
    // --- they free up mid-simulation, and drives the loop with
    // --- serve().

    /** Number of cores in the machine. */
    unsigned coreCount() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** True when core @p c is not executing a stream. */
    bool coreIdle(unsigned c) const { return cores_[c]->finished(); }

    /**
     * Start @p source on idle core @p c; @p on_finish fires at
     * completion. Legal mid-simulation, including from inside
     * another (or the same) core's completion callback. The source
     * is borrowed and must stay alive until completion. @p priority
     * marks every access as latency-class traffic (see
     * Core::setPriority): dispatchers flag OLTP-class work so the
     * read-priority channel policy can serve it first.
     */
    void startOnCore(unsigned c, OpSource &source, bool priority,
                     util::UniqueFunction<void(Tick)> on_finish);

    /**
     * Run the event loop until it drains, then snapshot statistics
     * exactly like run(). Callers are responsible for having seeded
     * the queue (arrival events, startOnCore) and for terminating
     * generators, or the loop never empties. RunResult::ticks spans
     * from the call to the last event (drain included).
     */
    RunResult serve();

    /** The machine's event queue (service generators schedule
     *  arrival events into it). */
    sim::EventQueue &eventQueue() { return eq_; }

    /** The epoch sampler, or nullptr when epochTicks is 0 (service
     *  clients attach run-queue gauges to it). */
    sim::EpochSampler *epochSampler() { return sampler_.get(); }

    /** Drop all cache/bank state and statistics. */
    void reset();

    /** Access to the hierarchy (tests and advanced callers). */
    cache::Hierarchy &hierarchy() { return *hierarchy_; }

    /** Access to the (far) memory system (tests and advanced
     *  callers). In a hybrid machine this is the NVM device. */
    mem::MemorySystem &memory() { return *memory_; }

    /** The machine-wide statistics registry (tests and reports).
     *  run() snapshots it; callers may read it mid-run too. */
    const util::StatRegistry &registry() const { return registry_; }

    /** Mutable registry access: service clients register their own
     *  statistics (latency histograms, admission counters) so they
     *  ride in the same snapshot. Registered sources must outlive
     *  every later snapshot of this machine. */
    util::StatRegistry &registry() { return registry_; }

  private:
    /**
     * The tail runSources() and serve() share: start the epoch
     * sampler, drain the event queue, panic unless every core
     * finished and the event slab, the memory tier, the MSHRs, the
     * hierarchy's deferred and write-back lists and the hybrid
     * tier's migrations are empty, and snapshot the statistics. The
     * reported span runs from @p start to @p *end as read after the
     * drain (the last core's finish), or to the last executed event
     * when @p end is null.
     */
    RunResult drain(Tick start, const Tick *end);

    MachineConfig config_;
    sim::EventQueue eq_;
    std::unique_ptr<mem::MemorySystem> memory_;
    /** Near DRAM tier and its composition (hybrid machines only). */
    std::unique_ptr<mem::MemorySystem> near_;
    std::unique_ptr<mem::HybridMemory> hybrid_;
    /** The tier the hierarchy was built against (hybrid_ or
     *  memory_); never null after construction. */
    mem::MemoryTier *tier_ = nullptr;
    std::unique_ptr<cache::Hierarchy> hierarchy_;
    std::vector<std::unique_ptr<Core>> cores_;
    /** Holds pointers into the components above; members are
     *  destroyed in reverse declaration order, so it must stay
     *  declared after them (it never dereferences at destruction,
     *  but the ordering keeps the invariant obvious). */
    util::StatRegistry registry_;
    std::unique_ptr<sim::EpochSampler> sampler_;
};

} // namespace rcnvm::cpu

#endif // RCNVM_CPU_MACHINE_HH_
