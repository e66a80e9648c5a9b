#include "mem/controller.hh"

#include <iterator>
#include <limits>

#include "util/chrome_trace.hh"
#include "util/logging.hh"

namespace rcnvm::mem {

namespace {
constexpr Tick noTick = std::numeric_limits<Tick>::max();
} // namespace

ChannelController::ChannelController(const AddressMap &map,
                                     const TimingParams &timing,
                                     sim::EventQueue &eq,
                                     unsigned queue_capacity,
                                     bool salp, unsigned channel_id,
                                     SchedPolicyKind sched)
    : map_(map),
      timing_(timing),
      eq_(eq),
      readPriority_(sched == SchedPolicyKind::ReadPriority),
      capacity_(queue_capacity),
      channelId_(channel_id),
      statsSince_(eq.now())
{
    const Geometry &g = map_.geometry();
    banks_.assign(g.ranksPerChannel * g.banksPerRank,
                  Bank(salp ? g.subarraysPerBank : 0));
    bankQueues_.resize(banks_.size());
    activeBanks_.reserve(banks_.size());
    pool_.reserve(capacity_);
    freeSlots_.reserve(capacity_);
}

unsigned
ChannelController::bankIndex(const DecodedAddr &d) const
{
    return d.rank * map_.geometry().banksPerRank + d.bank;
}

unsigned
ChannelController::bufferIndex(const DecodedAddr &d, Orientation o)
{
    return o == Orientation::Row ? d.row : d.col;
}

void
ChannelController::enqueue(MemPacket &&req, const DecodedAddr &dec)
{
    // The capacity is a soft cap: demand traffic respects
    // canAccept(), while write-backs may transiently overshoot so
    // evictions never deadlock the hierarchy.
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    Pending &p = pool_[slot];
    p.req = std::move(req);
    p.enqueueTick = eq_.now();
    p.seq = nextSeq_++;
    p.subarray = dec.subarray;
    p.bufferIdx = bufferIndex(dec, p.req.orient);
    p.bypassed = 0;

    const unsigned b = bankIndex(dec);
    BankQueue &bq = bankQueues_[b];
    bq.fifo.push_back(slot);

    // A request joins the candidates only as its bank's front or as
    // its oldest hit; either one may bring the idle horizon closer.
    Tick readyAt = noTick;
    if (bq.fifo.size() == 1) {
        refreshView(b);
        readyAt = frontReadyAt(bq);
    } else if (bq.hitPos < 0 &&
               banks_[b].hits(p.req.orient, p.subarray, p.bufferIdx)) {
        bq.hitPos = static_cast<std::ptrdiff_t>(bq.fifo.size()) - 1;
        bq.hitSeq = p.seq;
        bq.hitUpper = upperTier(p);
        readyAt = hitReadyAt(bq);
    }
    if (!idleHeld_ && readyAt < idleUntil_)
        idleUntil_ = readyAt;

    stats_.bankQueueDepth.sample(static_cast<double>(bq.fifo.size()));
    if (!bq.active) {
        bq.active = true;
        activeBanks_.push_back(b);
    }
    stats_.queueOccupancy.sample(static_cast<double>(queued()));
    trySchedule();
}

void
ChannelController::scheduleWakeup(Tick when)
{
    if (wakeupScheduled_ && wakeupAt_ <= when)
        return;
    wakeupScheduled_ = true;
    wakeupAt_ = when;
    const std::uint64_t gen = ++wakeupGen_;
    eq_.schedule(when, [this, gen] {
        if (wakeupGen_ != gen)
            return; // superseded by a newer wakeup
        wakeupScheduled_ = false;
        stats_.wakeups.inc();
        trySchedule();
    });
}

void
ChannelController::cancelWakeup()
{
    if (wakeupScheduled_) {
        wakeupScheduled_ = false;
        ++wakeupGen_;
    }
}

void
ChannelController::refreshView(unsigned b)
{
    BankQueue &bq = bankQueues_[b];
    const Bank &bank = banks_[b];
    bq.hitPos = -1;
    bq.hitSeq = noSeq;
    if (bq.fifo.empty())
        return; // the next enqueue refreshes it as the front
    bq.nextReady = bank.nextReady();
    const Pending &front = pool_[bq.fifo.front()];
    bq.front = bank.lookahead(front.req.orient, front.subarray,
                              front.bufferIdx, timing_);
    bq.frontSeq = front.seq;
    bq.frontUpper = upperTier(front);
    if (bq.front.outcome == AccessOutcome::BufferHit) {
        bq.hitPos = 0;
        return;
    }
    for (std::size_t i = 1; i < bq.fifo.size(); ++i) {
        const Pending &p = pool_[bq.fifo[i]];
        if (bank.hits(p.req.orient, p.subarray, p.bufferIdx)) {
            bq.hitPos = static_cast<std::ptrdiff_t>(i);
            bq.hitSeq = p.seq;
            bq.hitUpper = upperTier(p);
            return;
        }
    }
}

void
ChannelController::issueFrom(unsigned b, std::size_t pos)
{
    BankQueue &bq = bankQueues_[b];
    const std::uint32_t slot = bq.fifo[pos];
    bq.fifo.erase(bq.fifo.begin() + static_cast<std::ptrdiff_t>(pos));
    // The slot is free again, but nothing can claim it before this
    // function returns, so p stays valid.
    freeSlots_.push_back(slot);
    Pending &p = pool_[slot];
    idleUntil_ = Tick{};

    // Backpressure: tell the client the moment occupancy drops back
    // below capacity. Deferred to a same-tick event so client code
    // (which may re-enter enqueue) never runs inside the scheduler.
    if (spaceCb_ && queued() == capacity_ - 1 && !spaceNotifyPending_) {
        spaceNotifyPending_ = true;
        eq_.schedule(eq_.now(), [this] {
            spaceNotifyPending_ = false;
            if (spaceCb_)
                spaceCb_();
        });
    }

    Bank &bank = banks_[b];
    Bank::Service s =
        bank.access(eq_.now(), p.req.orient, p.subarray,
                    p.bufferIdx, p.req.isWrite, timing_, busFree_);

    // A gathered line's words come from shuffled column positions
    // across the chips; pattern translation and chip-conflict
    // serialisation halve the useful-word rate on the bus, so the
    // transfer occupies two burst slots (calibrated to the GS-DRAM
    // relationship the RC-NVM paper reports).
    if (p.req.gathered)
        s.finish += timing_.cyc(timing_.tBURST);

    busFree_ = s.finish;

    // The bank's state and its front may have changed.
    refreshView(b);

    // Statistics.
    (p.req.isWrite ? stats_.writes : stats_.reads).inc();
    if (p.req.gathered)
        stats_.gathered.inc();
    const bool is_row = p.req.orient == Orientation::Row;
    (is_row ? stats_.rowAccesses : stats_.colAccesses).inc();
    const bool hit = s.outcome == AccessOutcome::BufferHit;
    switch (s.outcome) {
      case AccessOutcome::BufferHit:
        stats_.bufferHits.inc();
        break;
      case AccessOutcome::BufferMiss:
        stats_.bufferMisses.inc();
        break;
      case AccessOutcome::BufferConflict:
        stats_.bufferConflicts.inc();
        break;
      case AccessOutcome::OrientationSwitch:
        stats_.orientationSwitches.inc();
        break;
    }
    if (is_row)
        (hit ? stats_.rowBufferHits : stats_.rowBufferMisses).inc();
    else
        (hit ? stats_.colBufferHits : stats_.colBufferMisses).inc();
    stats_.queueWaitTicks.sample(
        static_cast<double>((s.start - p.enqueueTick).value()));
    stats_.queueWaitHist.sample((s.start - p.enqueueTick).value());
    stats_.serviceTicks.sample(
        static_cast<double>((s.finish - s.start).value()));
    RCNVM_TRACE_COMPLETE("queue",
                         util::ChromeTracer::kPidMemBase + channelId_,
                         b, p.enqueueTick, s.start - p.enqueueTick,
                         p.req.addr);
    RCNVM_TRACE_COMPLETE("service",
                         util::ChromeTracer::kPidMemBase + channelId_,
                         b, s.start, s.finish - s.start, p.req.addr);
    // A gathered transfer holds the bus for two burst slots.
    stats_.busBusyTicks.inc(timing_.cyc(timing_.tBURST).value() *
                            (p.req.gathered ? 2u : 1u));

    // Energy accounting (extension): activations, bursts, and cell
    // write pulses for dirty-buffer flushes.
    if (s.outcome != AccessOutcome::BufferHit)
        stats_.energyPJ += timing_.eActivate;
    if (s.flushedDirty)
        stats_.energyPJ += timing_.eWritePulse;
    stats_.energyPJ += p.req.isWrite ? timing_.eWriteBurst
                                     : timing_.eReadBurst;
    if (p.req.gathered)
        stats_.energyPJ += timing_.eReadBurst; // second burst slot

    if (p.req.onComplete) {
        eq_.schedule(s.finish, [cb = std::move(p.req.onComplete),
                                finish = s.finish]() mutable {
            cb(finish);
        });
    }
}

void
ChannelController::trySchedule()
{
    /** A tier's oldest ready hit or oldest ready FIFO front. */
    struct Best {
        std::uint64_t seq = noSeq;
        unsigned bank = 0;
        std::size_t pos = 0;
    };

    // Nothing has issued since a round found nothing ready before
    // idleUntil_, and no enqueue has added a candidate ready sooner:
    // the views and busFree_ are unchanged, so a full round would
    // come to the same wakeup.
    if (eq_.now() < idleUntil_) {
        scheduleWakeup(idleUntil_);
        return;
    }

    for (;;) {
        if (queued() == 0) {
            cancelWakeup();
            return;
        }

        const Tick now = eq_.now();

        // One pass over the banks that have work, keeping in issue
        // order the tier-0 hit, tier-0 front, tier-1 hit and tier-1
        // front: per tier the oldest ready open-buffer hit and the
        // oldest ready FIFO front. Tier 0 holds OLTP-flagged reads
        // under read priority, tier 1 everything else. Only fronts
        // compete without a hit: a deeper entry may bypass its
        // bank's front solely on the strength of an open-buffer hit.
        // The pass also tracks the globally oldest request (for
        // starvation control) and the earliest tick anything becomes
        // ready. It reads only the banks' views and busFree_.
        Best best[4];
        const auto offer = [&](unsigned b, std::size_t pos,
                               std::uint64_t seq, bool upper, bool hit) {
            Best &bestHit = best[upper ? 0 : 2];
            Best &bestFront = best[upper ? 1 : 3];
            if (hit && seq < bestHit.seq)
                bestHit = {seq, b, pos};
            if (pos == 0 && seq < bestFront.seq)
                bestFront = {seq, b, pos};
        };
        std::uint64_t headSeq = noSeq;
        unsigned headBank = 0;
        Tick headReadyAt = noTick;
        Tick nextWake = noTick;

        for (std::size_t i = 0; i < activeBanks_.size();) {
            const unsigned b = activeBanks_[i];
            BankQueue &bq = bankQueues_[b];
            if (bq.fifo.empty()) {
                bq.active = false;
                activeBanks_[i] = activeBanks_.back();
                activeBanks_.pop_back();
                continue;
            }

            // Within a bank requests are FIFO except for buffer
            // hits, so the front plus the oldest hit are the only
            // candidates this bank can contribute.
            const Tick readyAt = frontReadyAt(bq);
            if (bq.frontSeq < headSeq) {
                headSeq = bq.frontSeq;
                headBank = b;
                headReadyAt = readyAt;
            }
            if (readyAt <= now) {
                offer(b, 0, bq.frontSeq, bq.frontUpper,
                      bq.front.outcome == AccessOutcome::BufferHit);
            } else if (readyAt < nextWake) {
                nextWake = readyAt;
            }

            if (bq.hitPos > 0) {
                const Tick hitReady = hitReadyAt(bq);
                if (hitReady <= now) {
                    offer(b, static_cast<std::size_t>(bq.hitPos),
                          bq.hitSeq, bq.hitUpper, true);
                } else if (hitReady < nextWake) {
                    nextWake = hitReady;
                }
            }
            ++i;
        }

        // Starvation control: once the globally oldest request has
        // been bypassed by ANY younger request too often, nothing
        // else may issue until it has been served.
        Pending &head = pool_[bankQueues_[headBank].fifo.front()];
        if (head.bypassed >= starvationCap) {
            if (headReadyAt <= now) {
                issueFrom(headBank, 0);
                continue;
            }
            idleUntil_ = headReadyAt;
            idleHeld_ = true;
            scheduleWakeup(headReadyAt);
            return;
        }

        const Best *pick =
            std::find_if(std::begin(best), std::end(best),
                         [](const Best &c) { return c.seq != noSeq; });
        if (pick == std::end(best)) {
            // Some front is queued and none is ready, so nextWake is
            // that front's (or an earlier hit's) ready tick.
            idleUntil_ = nextWake;
            idleHeld_ = false;
            scheduleWakeup(nextWake);
            return;
        }

        if (pick->seq != headSeq)
            ++head.bypassed;
        issueFrom(pick->bank, pick->pos);
    }
}

} // namespace rcnvm::mem
