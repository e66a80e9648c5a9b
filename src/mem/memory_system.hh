/**
 * @file
 * The main-memory facade: address map, per-channel FR-FCFS
 * controllers (optionally with the read-priority tier), and
 * aggregate statistics for one of the four evaluated devices.
 */

#ifndef RCNVM_MEM_MEMORY_SYSTEM_HH_
#define RCNVM_MEM_MEMORY_SYSTEM_HH_

#include <functional>
#include <memory>
#include <vector>

#include "mem/controller.hh"
#include "mem/geometry.hh"
#include "mem/request.hh"
#include "mem/timing.hh"
#include "sim/event_queue.hh"
#include "util/stat_registry.hh"
#include "util/stats.hh"

namespace rcnvm::mem {

/**
 * The abstract memory tier the cache hierarchy programs against. A
 * tier is anything that can accept line packets and complete them
 * asynchronously: a single device (MemorySystem) or a composition
 * such as the hybrid DRAM-fronting-RC-NVM tier (HybridMemory). The
 * interface is exactly the surface the hierarchy consumes — packets
 * enter only through the backpressured tryIssue() — so single-tier
 * machines pay only a devirtualisable indirection.
 */
class MemoryTier
{
  public:
    virtual ~MemoryTier() = default;

    /** Capability set (column access, gather) of the tier as the
     *  client sees it (for a hybrid tier: the backing device's). */
    virtual const DeviceCaps &caps() const = 0;

    /** The address map client addresses are expressed in. */
    virtual const AddressMap &map() const = 0;

    /** Channel a packet to this address/orientation would use. */
    virtual unsigned channelOf(Addr addr, Orientation orient) const = 0;

    /** Number of channels (for per-channel client bookkeeping). */
    virtual unsigned channels() const = 0;

    /** Backpressured issue; on refusal @p pkt is left untouched. */
    [[nodiscard]] virtual bool tryIssue(MemPacket &pkt) = 0;

    /** Register the retry hook for refused clients. */
    virtual void setRetryCallback(std::function<void()> cb) = 0;

    /** Register the tier's statistics into @p r. */
    virtual void registerStats(util::StatRegistry &r) const = 0;

    /** Requests queued across the tier right now (epoch gauge). */
    virtual std::size_t queuedTotal() const = 0;

    /** Reset device state and statistics. */
    virtual void reset() = 0;
};

/**
 * A complete main-memory subsystem (RC-NVM, RRAM, DRAM, or GS-DRAM):
 * the Figure-6 organisation of channels x ranks x banks x subarrays
 * behind per-channel FR-FCFS controllers.
 */
class MemorySystem : public MemoryTier
{
  public:
    /** The device's Table-1 preset: its timing and geometry, 32-deep
     *  FR-FCFS channel queues, one buffer pair per bank. */
    MemorySystem(DeviceKind kind, sim::EventQueue &eq);

    /**
     * @param kind    which of the four devices to model
     * @param eq      simulation event queue
     * @param timing  device timing
     * @param salp    per-subarray buffer pairs (SALP extension)
     * @param queue_capacity  per-channel request-queue depth
     * @param geometry  memory organisation (scaling studies and
     *                  multi-channel benchmarks)
     * @param sched   request-selection policy
     */
    MemorySystem(DeviceKind kind, sim::EventQueue &eq,
                 const TimingParams &timing, bool salp,
                 unsigned queue_capacity, const Geometry &geometry,
                 SchedPolicyKind sched);

    /** Device kind being modelled. */
    DeviceKind kind() const { return kind_; }

    /** Capability set (column access, gather). */
    const DeviceCaps &caps() const override { return caps_; }

    /** The device's dual (or single) address map. */
    const AddressMap &map() const override { return map_; }

    /** True when a request can be queued right now. */
    bool canAccept(Addr addr, Orientation orient) const;

    /** Channel a packet to this address/orientation would use. */
    unsigned channelOf(Addr addr, Orientation orient) const override;

    /** Number of channels (for per-channel client bookkeeping). */
    unsigned channels() const override
    {
        return static_cast<unsigned>(channels_.size());
    }

    /**
     * Queue a request unconditionally (the hybrid tier's copy and
     * write-back traffic, and callers without a cache hierarchy).
     * Column-oriented requests are rejected with a panic on devices
     * without column access (the compiler must not emit them).
     */
    void issue(MemPacket &&req);

    /**
     * Backpressured issue: queue @p pkt only if its channel has
     * room. On refusal the packet is left untouched (the caller
     * keeps ownership and retries after the retry callback) and the
     * rejection is counted in `mem.rejectedIssues`.
     */
    [[nodiscard]] bool tryIssue(MemPacket &pkt) override;

    /**
     * Register the retry hook invoked (via a same-tick event)
     * whenever any channel that refused a packet frees queue space.
     */
    void setRetryCallback(std::function<void()> cb) override;

    /**
     * Register this memory system's statistics: per-channel counters
     * and sample sets under shared names (the registry aggregates
     * them), and the derived statistics — `mem.requests`, the
     * avg/max family, `mem.busUtilization`, `mem.bufferMissRate` —
     * as report-time formulas so they are computed from fully merged
     * inputs and can never be re-merged downstream.
     *
     * The registry stores pointers into this object; it must not
     * outlive the memory system.
     */
    void registerStats(util::StatRegistry &r) const override;

    /** Aggregate statistics over all channels (a snapshot of a
     *  registry built by registerStats). */
    util::StatsMap stats() const;

    /** Requests queued across all channels right now (epoch gauge). */
    std::size_t queuedTotal() const override;

    /** Reset controllers, banks, and statistics. */
    void reset() override;

  private:
    /** Panic on a column-oriented or gathered packet the device
     *  cannot serve (the compiler must not emit them). */
    void checkCaps(const MemPacket &pkt) const;

    DeviceKind kind_;
    DeviceCaps caps_;
    AddressMap map_;
    std::vector<std::unique_ptr<ChannelController>> channels_;
    util::Counter rejectedIssues_; //!< tryIssue refusals
};

/** Geometry preset for a device kind. */
Geometry geometryFor(DeviceKind kind);

} // namespace rcnvm::mem

#endif // RCNVM_MEM_MEMORY_SYSTEM_HH_
