#include "mem/hybrid_tier.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rcnvm::mem {

namespace {

// Near-tier shape: frames per channel = ranks x banks x rows.
constexpr unsigned kNearRanksPerChannel = 1;
constexpr unsigned kNearBanksPerRank = 8;
constexpr unsigned kNearRowsPerBank = 16; //!< frames per near bank

// Policy thresholds.
constexpr double kEwmaAlpha = 0.25;    //!< row-buffer miss EWMA gain
constexpr double kMissThreshold = 0.4; //!< RBLA: promote above this
constexpr double kOrientVeto = 1.0;    //!< col/row touch ratio vetoing
                                       //!< promotion (orientation)

// Migration mechanics.
constexpr unsigned kMigrationBurstLines = 4; //!< copy-traffic lines per
                                             //!< direction (of 128)
constexpr unsigned kMaxInflightPerChannel = 4;

} // namespace

const char *
toString(MigrationPolicyKind kind)
{
    switch (kind) {
      case MigrationPolicyKind::Rbla:
        return "rbla";
      case MigrationPolicyKind::HotPage:
        return "hotpage";
      case MigrationPolicyKind::Orientation:
        return "orientation";
    }
    rcnvm_panic("unknown migration policy kind");
}

Geometry
nearTierGeometry(const Geometry &far)
{
    Geometry g = far;
    g.ranksPerChannel = kNearRanksPerChannel;
    g.banksPerRank = kNearBanksPerRank;
    g.subarraysPerBank = 1;
    g.rowsPerSubarray = kNearRowsPerBank;
    return g;
}

HybridMemory::HybridMemory(MemorySystem &far, MemorySystem &near,
                           const HybridTierConfig &config,
                           sim::EventQueue &eq)
    : far_(far),
      near_(near),
      cfg_(config),
      eq_(eq),
      remap_(far.map().geometry(), near.map().geometry()),
      tracker_(far.map().geometry(), kEwmaAlpha, config.decayPeriod),
      frames_(remap_.frames()),
      inflight_(far.channels(), 0)
{
    if (near_.caps().columnAccess)
        rcnvm_panic("hybrid tier: the near tier is row-oriented by "
                    "construction; use a DRAM device");
}

unsigned
HybridMemory::channelOf(Addr addr, Orientation orient) const
{
    // Migrations are channel-local, so near and far agree.
    return far_.channelOf(addr, orient);
}

bool
HybridMemory::tryIssue(MemPacket &pkt)
{
    const DecodedAddr d = far_.map().decode(pkt.addr, pkt.orient);
    if (pkt.orient == Orientation::Column) {
        if (!far_.tryIssue(pkt))
            return false;
        onColumnAccess(d);
        return true;
    }
    const std::uint64_t row = remap_.rowId(d);
    // A busy frame that still maps a row is losing it (a demotion or
    // an eviction), and its commit copies nothing home: the row's
    // accesses go far from the migration's start.
    const std::int64_t frame = remap_.frameOf(row);
    if (frame < 0 || frames_[static_cast<std::size_t>(frame)].busy) {
        if (!far_.tryIssue(pkt))
            return false;
        onFarRowAccess(row);
        return true;
    }
    const Addr farAddr = pkt.addr;
    pkt.addr = near_.map().encode(remap_.toNear(d), pkt.orient);
    if (!near_.tryIssue(pkt)) {
        pkt.addr = farAddr; // refused: hand back untouched
        return false;
    }
    touchNear(frames_[static_cast<std::size_t>(frame)], pkt.isWrite);
    return true;
}

void
HybridMemory::setRetryCallback(std::function<void()> cb)
{
    // Both devices share the client's one hook; a refused client
    // retries tryIssue() per packet, so spare wakeups from the other
    // tier are harmless (same contract as multi-channel).
    far_.setRetryCallback(cb);
    near_.setRetryCallback(std::move(cb));
}

void
HybridMemory::touchNear(TierFrame &f, bool is_write)
{
    rowAccesses_.inc();
    nearHits_.inc();
    f.touches += 1.0;
    f.dirty = f.dirty || is_write;
}

void
HybridMemory::onFarRowAccess(std::uint64_t row_id)
{
    rowAccesses_.inc();
    tracker_.recordRow(row_id, eq_.now());
    if (migrationPending(row_id))
        return;
    if (promotes(tracker_.sample(row_id, eq_.now())))
        startPromotion(row_id);
}

void
HybridMemory::onColumnAccess(const DecodedAddr &d)
{
    colAccesses_.inc();
    // A 64-byte column-oriented line crosses 8 consecutive far rows
    // (one word from each) at the same column index.
    const unsigned wordsPerLine = 64 / far_.map().geometry().wordBytes;
    const unsigned base = d.row & ~(wordsPerLine - 1);
    for (unsigned i = 0; i < wordsPerLine; ++i) {
        DecodedAddr rd = d;
        rd.row = base + i;
        rd.offset = 0;
        const std::uint64_t row = remap_.rowId(rd);
        tracker_.recordColumn(row, eq_.now());
        const std::int64_t frameIdx = remap_.frameOf(row);
        if (frameIdx < 0)
            continue;
        colNearOverlaps_.inc();
        TierFrame &f = frames_[static_cast<std::uint32_t>(frameIdx)];
        if (f.dirty) {
            // The far copy of this row is stale where the near copy
            // was written; push the overlapped line segment back so
            // the column reader observes current data.
            rd.col = d.col & ~(wordsPerLine - 1);
            MemPacket wb;
            wb.setAddr(far_.map().encodeRow(rd));
            wb.isWrite = true;
            far_.issue(std::move(wb));
            f.dirty = false;
            colDirtyForces_.inc();
        }
        if (!f.busy && !migrationPending(row) &&
            demotesOnColumn(tracker_.sample(row, eq_.now())))
            startDemotion(static_cast<std::uint32_t>(frameIdx));
    }
}

bool
HybridMemory::promotes(const RowLocality &row) const
{
    switch (cfg_.policy) {
      case MigrationPolicyKind::Rbla:
        // Yoon et al.: promote rows whose far accesses keep missing
        // the row buffer; those pay the NVM activation again and
        // again, while rows that hit already see DRAM-like latency.
        return row.ewmaMiss >= kMissThreshold &&
               row.rowTouches >= cfg_.hotThreshold;
      case MigrationPolicyKind::HotPage:
        // Access count alone: the locality-blind baseline RBLA was
        // proposed against.
        return row.rowTouches >= cfg_.hotThreshold;
      case MigrationPolicyKind::Orientation:
        // Hot-page gated by column usage: a row the OLAP side scans
        // column-wise stays in RC-NVM, the only device that can
        // serve its column segments; promoted, every overlapping
        // column access would force a write-back.
        return row.rowTouches >= cfg_.hotThreshold &&
               row.colTouches <=
                   kOrientVeto * static_cast<double>(row.rowTouches);
    }
    rcnvm_panic("unknown migration policy kind");
}

bool
HybridMemory::demotesOnColumn(const RowLocality &row) const
{
    switch (cfg_.policy) {
      case MigrationPolicyKind::Rbla:
      case MigrationPolicyKind::HotPage:
        return false;
      case MigrationPolicyKind::Orientation:
        // Column pressure found after promotion sends the row home.
        return row.colTouches >
               kOrientVeto * static_cast<double>(row.rowTouches);
    }
    rcnvm_panic("unknown migration policy kind");
}

double
HybridMemory::victimScore(const RowLocality &row,
                          const TierFrame &frame) const
{
    switch (cfg_.policy) {
      case MigrationPolicyKind::Rbla:
        // The same benefit estimate as promotion: evict the row
        // gaining least.
        return static_cast<double>(row.ewmaMiss) * frame.touches;
      case MigrationPolicyKind::HotPage:
        return frame.touches;
      case MigrationPolicyKind::Orientation:
        // Column-touched rows rank first for eviction.
        return frame.touches -
               static_cast<double>(row.colTouches) * cfg_.hotThreshold;
    }
    rcnvm_panic("unknown migration policy kind");
}

bool
HybridMemory::migrationPending(std::uint64_t row_id) const
{
    for (const Migration &m : inflightMigs_) {
        if (m.promoteRow == static_cast<std::int64_t>(row_id) ||
            m.victimRow == static_cast<std::int64_t>(row_id))
            return true;
    }
    return false;
}

void
HybridMemory::copyTraffic(const DecodedAddr &src_row, bool src_near,
                          const DecodedAddr &dst_row, bool dst_near)
{
    // A row copy is modelled as a sparse burst over the row: a
    // fixed number of read+write line pairs, spread across the
    // row's columns so the traffic exercises the bus like a DMA
    // engine would, without the full 128-line cost (the remainder is
    // folded into migrationLatency).
    const Geometry &g = far_.map().geometry();
    const unsigned wordsPerLine = 64 / g.wordBytes;
    const unsigned stride =
        std::max(wordsPerLine, g.colsPerSubarray / kMigrationBurstLines);
    for (unsigned l = 0; l < kMigrationBurstLines; ++l) {
        const unsigned col = (l * stride) % g.colsPerSubarray &
                             ~(wordsPerLine - 1);
        DecodedAddr s = src_row;
        s.col = col;
        MemPacket rd;
        rd.setAddr((src_near ? near_ : far_).map().encodeRow(s));
        (src_near ? near_ : far_).issue(std::move(rd));

        DecodedAddr t = dst_row;
        t.col = col;
        MemPacket wr;
        wr.setAddr((dst_near ? near_ : far_).map().encodeRow(t));
        wr.isWrite = true;
        (dst_near ? near_ : far_).issue(std::move(wr));
    }
}

void
HybridMemory::startPromotion(std::uint64_t row_id)
{
    const unsigned ch = remap_.rowChannel(row_id);
    if (inflight_[ch] >= kMaxInflightPerChannel) {
        deferred_.inc();
        return;
    }

    // A free frame in this channel, or the lowest-ranked victim.
    const std::uint32_t lo = ch * remap_.framesPerChannel();
    const std::uint32_t hi = lo + remap_.framesPerChannel();
    std::int64_t freeFrame = -1, victimFrame = -1;
    double victimBest = 0;
    for (std::uint32_t f = lo; f < hi; ++f) {
        const TierFrame &fr = frames_[f];
        if (fr.busy)
            continue;
        if (!fr.valid) {
            freeFrame = f;
            break;
        }
        const double score =
            victimScore(tracker_.sample(fr.rowId, eq_.now()), fr);
        if (victimFrame < 0 || score < victimBest) {
            victimFrame = f;
            victimBest = score;
        }
    }

    Migration m;
    m.promoteRow = static_cast<std::int64_t>(row_id);
    m.channel = ch;
    if (freeFrame >= 0) {
        m.frame = static_cast<std::uint32_t>(freeFrame);
    } else if (victimFrame >= 0) {
        m.frame = static_cast<std::uint32_t>(victimFrame);
        TierFrame &vf = frames_[m.frame];
        m.victimRow = static_cast<std::int64_t>(vf.rowId);
        if (vf.dirty) {
            // Copy the displaced row's data home before reuse.
            copyTraffic(remap_.frameLocation(m.frame), true,
                        remap_.rowLocation(vf.rowId), false);
            dirtyWritebacks_.inc();
        }
    } else {
        deferred_.inc();
        return;
    }

    TierFrame &f = frames_[m.frame];
    f.busy = true;
    ++inflight_[ch];
    inflightMigs_.push_back(m);

    // Fill traffic: read the promoted row far, write it near.
    copyTraffic(remap_.rowLocation(row_id), false,
                remap_.frameLocation(m.frame), true);

    eq_.schedule(eq_.now() + cfg_.migrationLatency,
                 [this, m] { commit(m); });
}

void
HybridMemory::startDemotion(std::uint32_t frame)
{
    TierFrame &f = frames_[frame];
    const unsigned ch = frame / remap_.framesPerChannel();
    if (inflight_[ch] >= kMaxInflightPerChannel) {
        deferred_.inc();
        return;
    }

    Migration m;
    m.victimRow = static_cast<std::int64_t>(f.rowId);
    m.frame = frame;
    m.channel = ch;

    if (f.dirty) {
        copyTraffic(remap_.frameLocation(frame), true,
                    remap_.rowLocation(f.rowId), false);
        dirtyWritebacks_.inc();
    }
    f.busy = true;
    ++inflight_[ch];
    inflightMigs_.push_back(m);

    eq_.schedule(eq_.now() + cfg_.migrationLatency,
                 [this, m] { commit(m); });
}

void
HybridMemory::commit(const Migration &m)
{
    TierFrame &f = frames_[m.frame];
    if (m.victimRow >= 0) {
        remap_.unmap(static_cast<std::uint64_t>(m.victimRow));
        demotions_.inc();
        f.valid = false;
    }
    if (m.promoteRow >= 0) {
        remap_.map(static_cast<std::uint64_t>(m.promoteRow), m.frame);
        f.valid = true;
        f.dirty = false;
        f.rowId = static_cast<std::uint64_t>(m.promoteRow);
        f.touches = 0;
        promotions_.inc();
    }
    f.busy = false;
    --inflight_[m.channel];
    // A busy frame is the target of exactly one migration.
    for (std::size_t i = 0; i < inflightMigs_.size(); ++i) {
        if (inflightMigs_[i].frame == m.frame) {
            inflightMigs_.erase(inflightMigs_.begin() +
                                static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
}

void
HybridMemory::registerStats(util::StatRegistry &r) const
{
    // The far device owns the mem.* namespace: in a hybrid machine
    // mem.* therefore reports far (NVM) traffic only, and the near
    // tier's device counters appear under tier.near.*.
    far_.registerStats(r);

    r.addCounter("tier.rowAccesses", rowAccesses_);
    r.addCounter("tier.nearHits", nearHits_);
    r.addCounter("tier.colAccesses", colAccesses_);
    r.addCounter("tier.colNearOverlaps", colNearOverlaps_);
    r.addCounter("tier.colDirtyForces", colDirtyForces_);
    r.addCounter("tier.promotions", promotions_);
    r.addCounter("tier.demotions", demotions_);
    r.addCounter("tier.dirtyWritebacks", dirtyWritebacks_);
    r.addCounter("tier.migrationsDeferred", deferred_);
    r.addGauge("tier.remapOccupancy", [this] {
        return static_cast<double>(remap_.mappedRows());
    });
    r.addGauge("tier.remapFrames", [this] {
        return static_cast<double>(remap_.frames());
    });
    r.addFormula("tier.nearHitRate", [](const util::StatRegistry &g) {
        const double total = g.counter("tier.rowAccesses");
        return total > 0 ? g.counter("tier.nearHits") / total : 0.0;
    });

    r.addCounterFn("tier.near.reads", [this] {
        return near_.stats().get("mem.reads");
    });
    r.addCounterFn("tier.near.writes", [this] {
        return near_.stats().get("mem.writes");
    });
    r.addCounterFn("tier.near.bufferHits", [this] {
        return near_.stats().get("mem.bufferHits");
    });
    r.addCounterFn("tier.near.bufferMisses", [this] {
        return near_.stats().get("mem.bufferMisses");
    });
    r.addCounterFn("tier.near.energyPJ", [this] {
        return near_.stats().get("mem.energyPJ");
    });
}

} // namespace rcnvm::mem
