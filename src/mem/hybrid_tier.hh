/**
 * @file
 * The hybrid DRAM + RC-NVM memory tier: a small DRAM MemorySystem
 * (shaped by nearTierGeometry(), at DDR3-1333 timing) fronts the far
 * NVM device behind the MemoryTier interface, with a row-granularity
 * remap table and one of three migration policies. Each policy
 * decision (promote, demote on column pressure, rank a victim) is one
 * private HybridMemory member switching on the configured kind; the
 * thresholds and the migration mechanics are constants of
 * hybrid_tier.cc, and HybridTierConfig holds only what callers set.
 *
 * Clients keep addressing the far device; HybridMemory::tryIssue is
 * the one routing decision. Row-oriented accesses to a mapped row are
 * redirected to its DRAM frame, except while a demotion or eviction
 * takes the row out of it; column-oriented accesses always execute
 * in the far device (only RC-NVM can serve them). A column
 * access overlapping a dirty mapped row first forces a write-back of
 * the stale far segment so column readers never observe
 * pre-migration data.
 */

#ifndef RCNVM_MEM_HYBRID_TIER_HH_
#define RCNVM_MEM_HYBRID_TIER_HH_

#include <cstdint>
#include <vector>

#include "mem/memory_system.hh"
#include "mem/tier.hh"
#include "util/stats.hh"

namespace rcnvm::mem {

/** Which migration policy a hybrid tier should construct. */
enum class MigrationPolicyKind {
    Rbla,        //!< row-buffer-locality-aware (Yoon et al.)
    HotPage,     //!< access-count threshold, locality-blind
    Orientation, //!< hot-page plus a column-usage veto: a row that
                 //!< is scanned column-wise stays in RC-NVM
};

/** Stable lowercase name ("rbla", "hotpage", "orientation"). */
const char *toString(MigrationPolicyKind kind);

/** One resident near-tier frame. */
struct TierFrame {
    bool valid = false;  //!< holds a committed mapping
    bool busy = false;   //!< a migration in flight targets it
    bool dirty = false;  //!< written since promotion
    std::uint64_t rowId = 0; //!< resident far row (valid frames)
    double touches = 0;  //!< accesses while resident
};

/** Tier configuration carried by cpu::MachineConfig. */
struct HybridTierConfig {
    bool enabled = false;
    MigrationPolicyKind policy = MigrationPolicyKind::Rbla;
    double hotThreshold = 6.0;      //!< touches counting a row as hot
    Tick decayPeriod{1'000'000};    //!< touch-count halving period
    Tick migrationLatency{200'000}; //!< issue-to-commit delay
};

/**
 * Shape of the near DRAM tier in front of a far device: it inherits
 * the far channel count, row width and word size (a frame holds
 * exactly one far row) and holds 8 banks x 16 frames per channel.
 */
Geometry nearTierGeometry(const Geometry &far);

/**
 * The composed tier. Owns no devices: the far and near MemorySystems
 * are built by the machine so their controllers share its event
 * queue.
 */
class HybridMemory : public MemoryTier
{
  public:
    HybridMemory(MemorySystem &far, MemorySystem &near,
                 const HybridTierConfig &config, sim::EventQueue &eq);

    /** The remap table (tests and reports). */
    const RemapTable &remap() const { return remap_; }

    // MemoryTier -----------------------------------------------------
    const DeviceCaps &caps() const override { return far_.caps(); }
    const AddressMap &map() const override { return far_.map(); }
    unsigned channelOf(Addr addr, Orientation orient) const override;
    unsigned channels() const override { return far_.channels(); }

    /** Route @p pkt: a row access to a mapped row goes to its near
     *  frame unless a migration is taking the row out of it; every
     *  other access goes to the far device. On refusal the packet is
     *  left untouched; on acceptance the tier updates its locality
     *  state and may start a migration. */
    [[nodiscard]] bool tryIssue(MemPacket &pkt) override;
    void setRetryCallback(std::function<void()> cb) override;
    void registerStats(util::StatRegistry &r) const override;
    std::size_t queuedTotal() const override
    {
        return far_.queuedTotal() + near_.queuedTotal();
    }

    /** Migrations started but not yet committed (drain audit). */
    std::size_t migrationsInFlight() const
    {
        return inflightMigs_.size();
    }

  private:
    /** An in-flight migration (promotion, optionally displacing a
     *  victim; or a pure demotion when promoteRow is absent). */
    struct Migration {
        std::int64_t promoteRow = -1; //!< far row being promoted
        std::int64_t victimRow = -1;  //!< resident row displaced
        std::uint32_t frame = 0;
        unsigned channel = 0;
    };

    /** Post-acceptance bookkeeping of a row access served by @p f. */
    void touchNear(TierFrame &f, bool is_write);

    /** Post-acceptance bookkeeping of a far row access: tracker
     *  update plus a possible promotion start. */
    void onFarRowAccess(std::uint64_t row_id);

    /** Post-acceptance bookkeeping of a column access: tracker and
     *  dirty-overlap handling for each far row the line crosses. */
    void onColumnAccess(const DecodedAddr &d);

    /** Promote this far-resident row into the DRAM tier now? */
    bool promotes(const RowLocality &row) const;

    /** Demote this near-resident row on a column-oriented touch? */
    bool demotesOnColumn(const RowLocality &row) const;

    /** Eviction rank of a resident frame: the lowest score is the
     *  victim when the tier is full. */
    double victimScore(const RowLocality &row,
                       const TierFrame &frame) const;

    /** True when @p row_id is the subject of an in-flight migration
     *  (as promotee or victim). */
    bool migrationPending(std::uint64_t row_id) const;

    /** Begin promoting @p row_id; picks a free frame or a victim. */
    void startPromotion(std::uint64_t row_id);

    /** Begin demoting the resident row of @p frame (column veto). */
    void startDemotion(std::uint32_t frame);

    /** Fire-and-forget copy traffic for one row, spread over the
     *  row's columns: reads from the source, writes to the dest. */
    void copyTraffic(const DecodedAddr &src_row, bool src_near,
                     const DecodedAddr &dst_row, bool dst_near);

    /** Commit @p m: apply the remap flips and release the frame. */
    void commit(const Migration &m);

    MemorySystem &far_;
    MemorySystem &near_;
    HybridTierConfig cfg_;
    sim::EventQueue &eq_;
    RemapTable remap_;
    RowLocalityTracker tracker_;
    std::vector<TierFrame> frames_;
    std::vector<unsigned> inflight_; //!< migrations per channel
    std::vector<Migration> inflightMigs_;

    // Statistics (tier.* namespace).
    util::Counter rowAccesses_;   //!< row packets routed by the tier
    util::Counter nearHits_;      //!< row packets served near
    util::Counter colAccesses_;   //!< column packets (always far)
    util::Counter colNearOverlaps_; //!< column lines crossing a
                                    //!< mapped row
    util::Counter colDirtyForces_;  //!< stale-segment write-backs
                                    //!< forced by column access
    util::Counter promotions_;
    util::Counter demotions_;     //!< policy demotions + evictions
    util::Counter dirtyWritebacks_; //!< demote-time copy-backs
    util::Counter deferred_;      //!< migrations skipped (in-flight
                                  //!< cap or no eligible frame)
};

} // namespace rcnvm::mem

#endif // RCNVM_MEM_HYBRID_TIER_HH_
