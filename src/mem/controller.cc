#include "mem/controller.hh"

#include <iterator>
#include <limits>

#include "util/chrome_trace.hh"
#include "util/logging.hh"

namespace rcnvm::mem {

namespace {
constexpr std::uint64_t noSeq = std::numeric_limits<std::uint64_t>::max();
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
    // Constructed rather than resized: Pending is move-only, so the
    // vector must never instantiate a copying relocation path.
    bankQueues_ = std::vector<BankQueue>(banks_.size());
    activeBanks_.reserve(banks_.size());
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
ChannelController::enqueue(MemPacket &&req)
{
    // The capacity is a soft cap: demand traffic respects
    // canAccept(), while write-backs may transiently overshoot so
    // evictions never deadlock the hierarchy.
    const DecodedAddr dec = map_.decode(req.addr, req.orient);
    const unsigned b = bankIndex(dec);
    BankQueue &bq = bankQueues_[b];

    // Built in place: the request's completion continuation is bulky
    // enough that every avoided move shows up in profiles.
    Pending &p = bq.fifo.emplace_back();
    p.dec = dec;
    p.req = std::move(req);
    p.enqueueTick = eq_.now();
    p.seq = nextSeq_++;
    p.bufferIdx = bufferIndex(p.dec, p.req.orient);

    if (bq.hitPos < 0 &&
        banks_[b].hits(p.req.orient, p.dec.subarray, p.bufferIdx))
        bq.hitPos = static_cast<std::ptrdiff_t>(bq.fifo.size()) - 1;
    stats_.bankQueueDepth.sample(static_cast<double>(bq.fifo.size()));
    if (!bq.active) {
        bq.active = true;
        activeBanks_.push_back(b);
    }
    ++totalQueued_;
    stats_.queueOccupancy.sample(static_cast<double>(totalQueued_));
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
            return; // superseded by a newer wakeup or a reset
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
ChannelController::refreshHitPos(BankQueue &bq, const Bank &bank) const
{
    bq.hitPos = -1;
    for (std::size_t i = 0; i < bq.fifo.size(); ++i) {
        const Pending &p = bq.fifo[i];
        if (bank.hits(p.req.orient, p.dec.subarray, p.bufferIdx)) {
            bq.hitPos = static_cast<std::ptrdiff_t>(i);
            return;
        }
    }
}

void
ChannelController::issueFrom(unsigned b, std::size_t pos)
{
    BankQueue &bq = bankQueues_[b];
    Pending p = std::move(bq.fifo[pos]);
    if (pos == 0)
        bq.fifo.pop_front();
    else
        bq.fifo.erase(bq.fifo.begin() +
                      static_cast<std::ptrdiff_t>(pos));
    --totalQueued_;

    // Backpressure: tell the client the moment occupancy drops back
    // below capacity. Deferred to a same-tick event so client code
    // (which may re-enter enqueue) never runs inside the scheduler.
    if (spaceCb_ && totalQueued_ == capacity_ - 1 &&
        !spaceNotifyPending_) {
        spaceNotifyPending_ = true;
        eq_.schedule(eq_.now(), [this] {
            spaceNotifyPending_ = false;
            if (spaceCb_)
                spaceCb_();
        });
    }

    Bank &bank = banks_[b];
    Bank::Service s =
        bank.access(eq_.now(), p.req.orient, p.dec.subarray,
                    p.bufferIdx, p.req.isWrite, timing_, busFree_);

    // A gathered line's words come from shuffled column positions
    // across the chips; pattern translation and chip-conflict
    // serialisation halve the useful-word rate on the bus, so the
    // transfer occupies two burst slots (calibrated to the GS-DRAM
    // relationship the RC-NVM paper reports).
    if (p.req.gathered)
        s.finish += timing_.cyc(timing_.tBURST);

    busFree_ = s.finish;

    // The buffer the bank holds open may have changed.
    refreshHitPos(bq, bank);

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

    for (;;) {
        if (totalQueued_ == 0) {
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
        // ready.
        Best best[4];
        const auto offer = [&](unsigned b, std::size_t pos,
                               const Pending &p, bool hit) {
            const bool upper =
                readPriority_ && p.req.priority && !p.req.isWrite;
            Best &bestHit = best[upper ? 0 : 2];
            Best &bestFront = best[upper ? 1 : 3];
            if (hit && p.seq < bestHit.seq)
                bestHit = {p.seq, b, pos};
            if (pos == 0 && p.seq < bestFront.seq)
                bestFront = {p.seq, b, pos};
        };
        std::uint64_t headSeq = noSeq;
        Pending *head = nullptr;
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
            const Bank &bank = banks_[b];

            // Within a bank requests are FIFO except for buffer
            // hits, so the front plus the oldest cached hit are the
            // only candidates this bank can contribute.
            Pending &front = bq.fifo.front();
            const Bank::Lookahead la = bank.lookahead(
                front.req.orient, front.dec.subarray, front.bufferIdx,
                timing_);
            const Tick readyAt =
                std::max(la.cmdReady, busReadyAt(la.lead));
            if (front.seq < headSeq) {
                headSeq = front.seq;
                head = &front;
                headReadyAt = readyAt;
            }
            if (readyAt <= now) {
                offer(b, 0, front, la.outcome == AccessOutcome::BufferHit);
            } else if (readyAt < nextWake) {
                nextWake = readyAt;
            }

            if (bq.hitPos > 0) {
                const auto pos = static_cast<std::size_t>(bq.hitPos);
                const Tick hitReady =
                    std::max(bank.nextReady(),
                             busReadyAt(timing_.cyc(timing_.tCAS)));
                if (hitReady <= now)
                    offer(b, pos, bq.fifo[pos], true);
                else if (hitReady < nextWake)
                    nextWake = hitReady;
            }
            ++i;
        }

        // Starvation control: once the globally oldest request has
        // been bypassed by ANY younger request too often, nothing
        // else may issue until it has been served.
        if (head->bypassed >= starvationCap) {
            if (headReadyAt <= now) {
                issueFrom(bankIndex(head->dec), 0);
                continue;
            }
            scheduleWakeup(headReadyAt);
            return;
        }

        const Best *pick =
            std::find_if(std::begin(best), std::end(best),
                         [](const Best &c) { return c.seq != noSeq; });
        if (pick == std::end(best)) {
            if (nextWake != noTick)
                scheduleWakeup(nextWake);
            return;
        }

        if (pick->seq != headSeq)
            ++head->bypassed;
        issueFrom(pick->bank, pick->pos);
    }
}

void
ChannelController::reset()
{
    for (auto &bq : bankQueues_) {
        bq.fifo.clear();
        bq.hitPos = -1;
        bq.active = false;
    }
    activeBanks_.clear();
    totalQueued_ = 0;
    for (auto &bank : banks_)
        bank.reset();
    busFree_ = Tick{};
    cancelWakeup();
    spaceNotifyPending_ = false;
    statsSince_ = eq_.now();
    stats_ = ControllerStats{};
}

} // namespace rcnvm::mem
