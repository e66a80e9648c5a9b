/**
 * @file
 * Three-level cache hierarchy with directory-based MESI coherence
 * and the RC-NVM synonym extensions of Sec. 4.3.
 *
 * Private L1/L2 per core, shared inclusive L3. The L3 doubles as the
 * directory: each L3 line keeps a sharer mask, one bit per core, set
 * when the line enters that core's private caches. Back-invalidation
 * of an L3 victim, remote-dirty fetches, write invalidations and
 * synonym partner updates visit only the cores in the line's mask;
 * inclusion guarantees no other core holds a copy. A bit may go stale
 * when an L2 evicts a clean line silently - probing that core is a
 * harmless miss; a dirty L2 victim clears its core's bit as it folds
 * into L3.
 * Directory reads touch no replacement state (DESIGN.md §4k).
 *
 * Crossing bits are maintained at the shared L3 as well - the
 * placement the paper prescribes for multi-core operation ("these
 * bits are stored in the cache directory"). Probe, update, and
 * clean-up work is charged to a synonym-overhead statistic that the
 * Figure-21 bench reports as an overhead ratio.
 *
 * The memory side is non-blocking: misses allocate MSHRs whose
 * target lists coalesce concurrent requests for the same line,
 * dirty evictions park in a write-back buffer, and when either
 * structure (or the channel queues below) is full the access is
 * refused and the issuing core stalls until a retry notification.
 */

#ifndef RCNVM_CACHE_HIERARCHY_HH_
#define RCNVM_CACHE_HIERARCHY_HH_

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "cache/synonym.hh"
#include "mem/memory_system.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "util/stat_registry.hh"
#include "util/stats.hh"
#include "util/types.hh"
#include "util/unique_function.hh"

namespace rcnvm::cache {

/** Static configuration of the whole hierarchy (Table 1 defaults). */
struct HierarchyConfig {
    unsigned cores = 4;
    Tick cpuPeriod{500}; //!< 2 GHz; cores read their clock from here

    CacheConfig l1{"L1", 32 * 1024, 64, 8};
    CacheConfig l2{"L2", 256 * 1024, 64, 8};
    CacheConfig l3{"L3", 8 * 1024 * 1024, 64, 8};

    CpuCycles l1Latency{4};
    CpuCycles l2Latency{12};
    CpuCycles l3Latency{38};
    CpuCycles remoteFetchPenalty{40}; //!< dirty line in another core
    CpuCycles invalidatePenalty{24};  //!< upgrade invalidations

    CpuCycles synonymProbe{2};  //!< crossing probe on an L3 fill
    CpuCycles synonymUpdate{2}; //!< write-through to a crossed line
    CpuCycles synonymCleanup{1}; //!< per bit cleared on eviction

    unsigned mshrs = 16;         //!< in-flight line fills (MSHR file)
    unsigned wbBufferDepth = 16; //!< parked dirty evictions

    /** The 2 GHz core clock as a typed domain. */
    sim::ClockDomain<CpuClk>
    cpuClock() const
    {
        return sim::ClockDomain<CpuClk>(cpuPeriod);
    }

    /** Ticks for @p c CPU cycles (the only CpuCycles -> Tick
     *  crossing on the cache path). */
    Tick cyc(CpuCycles c) const { return cpuClock().cyclesToTicks(c); }
};

/** One memory operation as seen by the hierarchy. */
struct CacheAccess {
    Addr addr = 0;
    Orientation orient = Orientation::Row;
    bool isWrite = false;
    bool bypass = false; //!< GS-DRAM gathered access: skip caches
    bool prefetchL3 = false; //!< group caching: fill the LLC only
    /** OLTP-class (latency-critical) access: carried into the miss
     *  packet so read-priority channel scheduling can see it. A miss
     *  that coalesces onto an in-flight MSHR entry inherits that
     *  packet's flag — the fill is already underway either way. */
    bool priority = false;
};

/**
 * The cache hierarchy. Functional state (tags, MESI, crossing bits)
 * is updated at issue time; timing is composed from level latencies
 * and the event-driven memory system below.
 */
class Hierarchy
{
  public:
    Hierarchy(const HierarchyConfig &config, sim::EventQueue &eq,
              mem::MemoryTier &memory);

    /** The configuration in use. */
    const HierarchyConfig &config() const { return config_; }

    /** Completion continuation of one access (move-only). */
    using DoneFn = util::UniqueFunction<void(Tick)>;

    /** Retry notification delivered to a refused core. */
    using RetryFn = util::UniqueFunction<void()>;

    /**
     * Perform one access for @p core. The memory decodes only the
     * low log2(capacity) bits of an address, so the caches key a
     * line by those bits too: addresses that differ only above them
     * name one line.
     *
     * @return true when the access was accepted; @p done is then
     *   invoked exactly once with the completion tick. false when
     *   the miss path is saturated (MSHRs or write-back buffer
     *   full): @p done is discarded, nothing was counted, and the
     *   core must re-present the access after its retry handler
     *   fires.
     */
    [[nodiscard]] bool access(unsigned core, const CacheAccess &a,
                              DoneFn done);

    /**
     * Register @p core's retry handler. Invoked - from an event
     * context, never re-entrantly from inside access() - whenever
     * miss-path resources free up; the core decides whether it was
     * actually waiting.
     */
    void setRetryHandler(unsigned core, RetryFn fn);

    /**
     * Pin or unpin every line of the given orientation overlapping
     * [addr, addr+bytes) in the shared L3 (group caching).
     * @return number of lines whose pin state changed
     */
    unsigned pinRange(Addr addr, Orientation orient,
                      std::uint64_t bytes, bool pinned);

    /**
     * Register the hierarchy's statistics: raw counters plus the
     * derived MSHR-occupancy mean/max as report-time formulas. The
     * registry stores pointers into this object; it must not outlive
     * the hierarchy.
     */
    void registerStats(util::StatRegistry &r) const;

    /** Aggregate statistics (a snapshot of a registry built by
     *  registerStats). */
    util::StatsMap stats() const;

    /** MSHR slots currently allocated (epoch gauge). */
    std::size_t mshrInUse() const { return mshrs_.inUse(); }

    /** Packets waiting outside memory: deferred demand packets plus
     *  parked write-backs (drain audit). */
    std::size_t parkedPackets() const
    {
        return deferred_.size() + wbBuffer_.size();
    }

    /** Demand misses past the LLC so far (epoch gauge). */
    std::uint64_t llcMissCount() const { return llcMisses_.value(); }

    /** Directory sharer mask of @p key's L3 line; 0 when the line is
     *  not in L3. Touches no replacement state. */
    Cache::SharerMask sharers(const LineKey &key) const;

    /** Drop all cache state and statistics. */
    void reset();

  private:
    using SharerMask = Cache::SharerMask;

    /** The synonym partners of one line. */
    using Partners = std::array<Crossing, SynonymMapper::wordsPerLine>;

    /** The partners an L3 fill of @p key probes, or nullopt when it
     *  probes none: synonyms are off, or L3 holds no line of the
     *  other orientation. */
    std::optional<Partners> fillPartners(const LineKey &key) const;

    /** Charge and account synonym work on an L3 fill; @p partners is
     *  fillPartners(key), taken before the insert. */
    CpuCycles onL3Fill(const LineKey &key,
                       const std::optional<Partners> &partners);

    /** Propagate a write to a crossed line if the bit is set. */
    CpuCycles onWrite(const LineKey &key, unsigned word);

    /** Clear partner crossing bits when an L3 line leaves. */
    void onL3Evict(const Cache::Victim &victim);

    /** Insert into L3 handling eviction side effects; @p partners
     *  is fillPartners(key). @return the installed L3 line */
    CacheLine &fillL3(const LineKey &key, MesiState state,
                      const std::optional<Partners> &partners,
                      CpuCycles &extra);

    /** Insert into a private level, maintaining inclusion, and record
     *  @p core as a sharer of @p llc_line, the key's L3 line. */
    void fillPrivate(unsigned core, const LineKey &key,
                     MesiState state, CacheLine &llc_line);

    /** Invalidate a key from its sharers' private caches
     *  (back-invalidation of an L3 victim). */
    void backInvalidate(const LineKey &key, SharerMask sharers,
                        bool &was_dirty);

    /** MESI: fetch back a dirty copy held by another sharer. */
    CpuCycles coherenceOnRead(unsigned core, const LineKey &key,
                              SharerMask sharers);

    /** MESI: obtain exclusivity for a write. Invalidates the other
     *  sharers' copies; @p sharers keeps at most @p core's bit. */
    CpuCycles coherenceOnWrite(unsigned core, const LineKey &key,
                               SharerMask &sharers);

    /** The mask of @p key's L3 line, looked up without touching LRU.
     *  Panics when the line is missing: callers hold a private copy,
     *  and inclusion puts every private line in L3. */
    SharerMask &sharersOf(const LineKey &key);

    /** Park a write-back of an evicted dirty line and try to send. */
    void writeback(const LineKey &key);

    /** Fill returned from memory: service every target of the MSHR
     *  in slot @p mshr_idx (captured at issue; slots are stable). */
    void onFillComplete(unsigned mshr_idx);

    /** Hand a packet to memory, deferring it when the channel is
     *  full. Deferral keeps per-channel issue order. */
    void sendPacket(mem::MemPacket &&pkt);

    /** Re-offer deferred packets (in order, per channel). */
    void drainDeferred();

    /** Issue parked write-backs while their channel has room and no
     *  deferred demand packet is ahead of them. */
    void drainWritebacks();

    /** Channel queue space opened up: drain, then wake cores. */
    void onMemorySpace();

    /** Invoke every registered retry handler. */
    void notifyRetry();

    HierarchyConfig config_;
    sim::EventQueue &eq_;
    mem::MemoryTier &memory_;
    /** The address bits the memory decodes (its capacity - 1). */
    Addr addrMask_;
    bool synonymEnabled_;
    SynonymMapper synonym_;

    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;

    MshrFile mshrs_;
    /** Scratch target list reused by onFillComplete (swap, not move,
     *  so neither buffer is reallocated per fill). */
    std::vector<MshrTarget> fillScratch_;
    std::deque<mem::MemPacket> deferred_; //!< refused by the channel
    std::vector<unsigned> deferredInChannel_; //!< per-channel count
    std::deque<LineKey> wbBuffer_; //!< parked dirty evictions
    std::vector<RetryFn> retryHandlers_;
    /** Refusals since the last retry notification; zero lets fill
     *  completions skip the handler fan-out entirely. */
    unsigned pendingRetries_ = 0;

    // Statistics.
    util::Counter accesses_;
    util::Counter l1Hits_;
    util::Counter l2Hits_;
    util::Counter l3Hits_;
    util::Counter llcMisses_;
    util::Counter writebacks_;
    util::Counter bypasses_;
    util::Counter mshrCoalesced_; //!< misses folded into a live MSHR
    util::Counter retries_;       //!< accesses refused (miss path full)
    util::Counter wbForwards_;    //!< misses served from the WB buffer
    util::Counter synonymProbes_;
    util::Counter crossingsFound_;
    util::Counter synonymUpdates_;
    util::Counter synonymTicks_;
    util::Counter cohRemoteFetches_;
    util::Counter cohInvalidations_;
    util::Counter cohTicks_;
    util::Counter pinOps_;
};

} // namespace rcnvm::cache

#endif // RCNVM_CACHE_HIERARCHY_HH_
