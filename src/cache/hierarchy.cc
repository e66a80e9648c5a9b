#include "cache/hierarchy.hh"

#include <algorithm>
#include <bit>

#include "util/bitfield.hh"
#include "util/chrome_trace.hh"
#include "util/logging.hh"

namespace rcnvm::cache {

Hierarchy::Hierarchy(const HierarchyConfig &config, sim::EventQueue &eq,
                     mem::MemoryTier &memory)
    : config_(config),
      eq_(eq),
      memory_(memory),
      addrMask_(memory.map().geometry().capacityBytes() - 1),
      synonymEnabled_(memory.caps().columnAccess),
      synonym_(memory.map()),
      mshrs_(config.mshrs),
      deferredInChannel_(memory.channels(), 0),
      retryHandlers_(config.cores)
{
    if (config_.cores > Cache::maxSharers)
        rcnvm_fatal("hierarchy: ", config_.cores, " cores exceed the ",
                    Cache::maxSharers, "-bit directory sharer mask");
    // access() and pinRange() mask every address below the capacity,
    // so this bounds every line number a cache sees.
    const std::uint64_t capacity = addrMask_ + 1;
    if (capacity / 64 > Cache::maxLines)
        rcnvm_fatal("hierarchy: a ", capacity, "-byte memory has more "
                    "lines than a cache tag word holds (",
                    Cache::maxLines, ")");
    for (unsigned c = 0; c < config_.cores; ++c) {
        l1_.push_back(std::make_unique<Cache>(config_.l1));
        l2_.push_back(std::make_unique<Cache>(config_.l2));
    }
    l3_ = std::make_unique<Cache>(config_.l3, /*directory=*/true);
    memory_.setRetryCallback([this] { onMemorySpace(); });
}

void
Hierarchy::setRetryHandler(unsigned core, RetryFn fn)
{
    retryHandlers_.at(core) = std::move(fn);
}

std::optional<Hierarchy::Partners>
Hierarchy::fillPartners(const LineKey &key) const
{
    // Orientation filter: when no lines of the other orientation are
    // cached at all, the crossing probe is skipped at zero cost.
    if (!synonymEnabled_ ||
        l3_->linesWithOrientation(flip(key.orient)) == 0)
        return std::nullopt;
    return synonym_.crossings(key);
}

CpuCycles
Hierarchy::onL3Fill(const LineKey &key,
                    const std::optional<Partners> &partners)
{
    // The fill's own eviction may have taken the other orientation's
    // last line since @p partners was computed; an insert never adds
    // one, so a fill that probes always has its partners.
    if (!partners || l3_->linesWithOrientation(flip(key.orient)) == 0)
        return CpuCycles{};

    CpuCycles extra = config_.synonymProbe;
    synonymProbes_.inc(SynonymMapper::wordsPerLine);

    CacheLine *self = l3_->find(key);
    for (const Crossing &c : *partners) {
        CacheLine *partner = l3_->find(c.partner);
        if (!partner)
            continue;
        crossingsFound_.inc();
        if (self)
            self->crossing |= std::uint8_t(1u << c.selfWord);
        partner->crossing |= std::uint8_t(1u << c.partnerWord);
        extra += CpuCycles{1}; // copy the shared word across
    }
    synonymTicks_.inc(config_.cyc(extra).value());
    return extra;
}

CpuCycles
Hierarchy::onWrite(const LineKey &key, unsigned word)
{
    if (!synonymEnabled_)
        return CpuCycles{};
    CacheLine *self = l3_->find(key);
    if (!self || !(self->crossing & (1u << word)))
        return CpuCycles{};

    // Keep the duplicated word coherent: update the crossed line in
    // the shared L3 and in the private copies its sharers may hold
    // (the writer's included). Inclusion: a partner missing from L3
    // has no private copies.
    const Crossing c = synonym_.crossingOfWord(key, word);
    CpuCycles extra = config_.synonymUpdate;
    if (CacheLine *partner = l3_->find(c.partner)) {
        partner->state = MesiState::Modified;
        for (SharerMask m = l3_->sharers(*partner); m; m &= m - 1) {
            const auto i = static_cast<unsigned>(std::countr_zero(m));
            if (CacheLine *p1 = l1_[i]->find(c.partner))
                p1->state = MesiState::Modified;
            if (CacheLine *p2 = l2_[i]->find(c.partner))
                p2->state = MesiState::Modified;
        }
    }

    synonymUpdates_.inc();
    synonymTicks_.inc(config_.cyc(extra).value());
    return extra;
}

void
Hierarchy::onL3Evict(const Cache::Victim &victim)
{
    if (!synonymEnabled_ || victim.crossing == 0)
        return;
    CpuCycles cleanup;
    for (unsigned w = 0; w < SynonymMapper::wordsPerLine; ++w) {
        if (!(victim.crossing & (1u << w)))
            continue;
        const Crossing c = synonym_.crossingOfWord(victim.key, w);
        if (CacheLine *partner = l3_->find(c.partner))
            partner->crossing &= std::uint8_t(~(1u << c.partnerWord));
        cleanup += config_.synonymCleanup;
    }
    // Clean-up happens off the critical path but still consumes tag
    // bandwidth; account it in the overhead statistic.
    synonymTicks_.inc(config_.cyc(cleanup).value());
}

void
Hierarchy::sendPacket(mem::MemPacket &&pkt)
{
    // An older deferred packet for the same channel must go first;
    // issuing around it would reorder the miss stream the controller
    // sees and break FR-FCFS's arrival-order tie-breaking. When
    // nothing is deferred at all (the common case) the channel
    // lookup - an address decode - is skipped entirely.
    if (deferred_.empty()) {
        if (memory_.tryIssue(pkt))
            return;
    } else {
        const unsigned ch = memory_.channelOf(pkt.addr, pkt.orient);
        if (deferredInChannel_[ch] == 0 && memory_.tryIssue(pkt))
            return;
    }
    const unsigned ch = memory_.channelOf(pkt.addr, pkt.orient);
    ++deferredInChannel_[ch];
    deferred_.push_back(std::move(pkt));
}

void
Hierarchy::drainDeferred()
{
    std::vector<bool> blocked(deferredInChannel_.size(), false);
    for (auto it = deferred_.begin(); it != deferred_.end();) {
        const unsigned ch = memory_.channelOf(it->addr, it->orient);
        if (!blocked[ch] && memory_.tryIssue(*it)) {
            --deferredInChannel_[ch];
            it = deferred_.erase(it);
        } else {
            blocked[ch] = true;
            ++it;
        }
    }
}

void
Hierarchy::writeback(const LineKey &key)
{
    writebacks_.inc();
    wbBuffer_.push_back(key);
    drainWritebacks();
}

void
Hierarchy::drainWritebacks()
{
    while (!wbBuffer_.empty()) {
        const LineKey key = wbBuffer_.front();
        // Demand packets deferred on this channel are older and
        // latency-critical; they keep their queue slots.
        if (!deferred_.empty() &&
            deferredInChannel_[memory_.channelOf(key.addr,
                                                 key.orient)] != 0)
            break;
        mem::MemPacket pkt;
        pkt.addr = key.addr;
        pkt.orient = key.orient;
        pkt.isWrite = true;
        if (!memory_.tryIssue(pkt))
            break;
        wbBuffer_.pop_front();
    }
}

void
Hierarchy::onMemorySpace()
{
    drainDeferred();
    drainWritebacks();
    notifyRetry();
}

void
Hierarchy::notifyRetry()
{
    // Nothing was refused since the last notification: every fill
    // completion lands here, so skip the handler fan-out unless a
    // core is actually waiting. Cleared before invoking handlers -
    // a handler that retries and is refused again re-arms it.
    if (pendingRetries_ == 0)
        return;
    pendingRetries_ = 0;
    for (auto &fn : retryHandlers_) {
        if (fn)
            fn();
    }
}

void
Hierarchy::backInvalidate(const LineKey &key, SharerMask sharers,
                          bool &was_dirty)
{
    for (; sharers; sharers &= sharers - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(sharers));
        if (auto v = l1_[i]->invalidate(key)) {
            if (v->state == MesiState::Modified)
                was_dirty = true;
        }
        if (auto v = l2_[i]->invalidate(key)) {
            if (v->state == MesiState::Modified)
                was_dirty = true;
        }
    }
}

CacheLine &
Hierarchy::fillL3(const LineKey &key, MesiState state,
                  const std::optional<Partners> &partners,
                  CpuCycles &extra)
{
    CacheLine *line = nullptr;
    auto victim = l3_->insert(key, state, &line);
    if (victim && victim->state != MesiState::Invalid) {
        // Inclusion: remove private copies of the evicted line.
        bool dirty = victim->state == MesiState::Modified;
        backInvalidate(victim->key, victim->sharers, dirty);
        onL3Evict(*victim);
        if (dirty)
            writeback(victim->key);
    }
    extra += onL3Fill(key, partners);
    return *line;
}

void
Hierarchy::fillPrivate(unsigned core, const LineKey &key,
                       MesiState state, CacheLine &llc_line)
{
    l3_->sharers(llc_line) |= SharerMask{1} << core;
    if (auto v2 = l2_[core]->insert(key, state)) {
        if (v2->state != MesiState::Invalid) {
            // L2 inclusion over L1.
            if (auto v1 = l1_[core]->invalidate(v2->key)) {
                if (v1->state == MesiState::Modified)
                    v2->state = MesiState::Modified;
            }
            if (v2->state == MesiState::Modified) {
                // Fold the dirty data back into the shared L3. This
                // core now holds no copy, so its sharer bit goes too
                // (a clean victim's bit stays stale, DESIGN.md §4k).
                if (CacheLine *l3line = l3_->find(v2->key)) {
                    l3line->state = MesiState::Modified;
                    l3_->sharers(*l3line) &= ~(SharerMask{1} << core);
                }
            }
        }
    }
    if (auto v1 = l1_[core]->insert(key, state)) {
        if (v1->state == MesiState::Modified) {
            if (CacheLine *l2line = l2_[core]->find(v1->key))
                l2line->state = MesiState::Modified;
            else if (CacheLine *l3line = l3_->find(v1->key))
                l3line->state = MesiState::Modified;
        }
    }
}

CpuCycles
Hierarchy::coherenceOnRead(unsigned core, const LineKey &key,
                           SharerMask sharers)
{
    CpuCycles extra;
    for (SharerMask m = sharers & ~(SharerMask{1} << core); m;
         m &= m - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(m));
        CacheLine *p1 = l1_[i]->find(key);
        CacheLine *p2 = l2_[i]->find(key);
        const bool dirty =
            (p1 && p1->state == MesiState::Modified) ||
            (p2 && p2->state == MesiState::Modified);
        if (dirty) {
            // Remote dirty copy: fetch and downgrade to Shared.
            if (p1)
                p1->state = MesiState::Shared;
            if (p2)
                p2->state = MesiState::Shared;
            if (CacheLine *l3line = l3_->find(key))
                l3line->state = MesiState::Modified;
            cohRemoteFetches_.inc();
            cohTicks_.inc(config_.cyc(config_.remoteFetchPenalty).value());
            extra += config_.remoteFetchPenalty;
        }
    }
    return extra;
}

CpuCycles
Hierarchy::coherenceOnWrite(unsigned core, const LineKey &key,
                            SharerMask &sharers)
{
    CpuCycles extra;
    bool any = false;
    const SharerMask self = SharerMask{1} << core;
    for (SharerMask m = sharers & ~self; m; m &= m - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(m));
        if (l1_[i]->invalidate(key))
            any = true;
        if (l2_[i]->invalidate(key))
            any = true;
    }
    sharers &= self;
    if (any) {
        cohInvalidations_.inc();
        cohTicks_.inc(config_.cyc(config_.invalidatePenalty).value());
        extra += config_.invalidatePenalty;
    }
    return extra;
}

Cache::SharerMask &
Hierarchy::sharersOf(const LineKey &key)
{
    const CacheLine *line = l3_->probe(key);
    if (!line)
        rcnvm_panic("directory: a private copy's line is not in L3");
    return l3_->sharers(*line);
}

Cache::SharerMask
Hierarchy::sharers(const LineKey &key) const
{
    const CacheLine *line = l3_->probe(key);
    return line ? l3_->sharers(*line) : 0;
}

void
Hierarchy::onFillComplete(unsigned mshr_idx)
{
    // The issuing packet captured its slot index; a slot stays live
    // under one key until this (single) completion frees it, so no
    // key search is needed on the hot fill path.
    if (!mshrs_.live(mshr_idx))
        rcnvm_panic("fill completion for an unknown MSHR line");
    MshrEntry *entry = &mshrs_.at(mshr_idx);
    const LineKey key = entry->key;
    RCNVM_TRACE_INSTANT("fill", util::ChromeTracer::kPidCache,
                        entry->targets.empty() ? 0u
                                               : entry->targets[0].core,
                        eq_.now(), key.addr);

    // Every set this fill will scan was last touched when the miss
    // issued, thousands of simulated ticks ago. Warm them all before
    // the first scan: the L3 set and its synonym partners' sets here,
    // each demand target's private sets in the loop below.
    l3_->prefetchSet(key);
    const std::optional<Partners> partners = fillPartners(key);
    if (partners) {
        for (const Crossing &c : *partners)
            l3_->prefetchSet(c.partner);
    }
    bool any_write = false;
    unsigned demand_targets = 0;
    for (const MshrTarget &t : entry->targets) {
        if (t.isWrite)
            any_write = true;
        if (!t.prefetchOnly) {
            ++demand_targets;
            l1_[t.core]->prefetchSet(key);
            l2_[t.core]->prefetchSet(key);
        }
    }
    // Swap (not move) the target list out so both buffers keep their
    // capacity: a move would steal the entry's buffer and force a
    // fresh allocation on the next miss that reuses the entry. The
    // entry must be released before the retry notification below so
    // a woken core can claim it immediately.
    fillScratch_.clear();
    fillScratch_.swap(entry->targets);
    mshrs_.free(*entry);

    CpuCycles extra;
    CacheLine &l3line = fillL3(
        key, any_write ? MesiState::Modified : MesiState::Exclusive,
        partners, extra);
    SharerMask &sharers = l3_->sharers(l3line);

    for (MshrTarget &t : fillScratch_) {
        if (t.prefetchOnly) {
            // Group-caching prefetch: the line is in the LLC now;
            // only the fill-side synonym work is on its path.
            eq_.scheduleAfter(config_.cyc(extra),
                              [done = std::move(t.done),
                               this]() mutable { done(eq_.now()); });
            continue;
        }
        CpuCycles textra = extra;
        if (t.isWrite) {
            textra += coherenceOnWrite(t.core, key, sharers);
            textra += onWrite(key, t.word);
        }
        const MesiState st =
            t.isWrite ? MesiState::Modified
            : (demand_targets == 1 && !any_write) ? MesiState::Exclusive
                                                  : MesiState::Shared;
        fillPrivate(t.core, key, st, l3line);
        const Tick fill = config_.cyc(config_.l1Latency + textra);
        eq_.scheduleAfter(fill, [done = std::move(t.done),
                                 this]() mutable { done(eq_.now()); });
    }

    // An MSHR (and possibly a channel slot) just freed up.
    notifyRetry();
}

bool
Hierarchy::access(unsigned core, const CacheAccess &a, DoneFn done)
{
    if (a.bypass) {
        // GS-DRAM gathered access: streams past the caches. Always
        // accepted - the packet parks in the deferred queue when the
        // channel is full, bounded by the cores' outstanding windows.
        accesses_.inc();
        bypasses_.inc();
        llcMisses_.inc();
        mem::MemPacket req;
        req.addr = util::alignDown(a.addr, 64);
        req.orient = a.orient;
        req.isWrite = a.isWrite;
        req.gathered = true;
        req.priority = a.priority;
        const Tick path = config_.cyc(config_.l1Latency +
                                      config_.l2Latency +
                                      config_.l3Latency);
        req.onComplete = [done = std::move(done)](Tick t) mutable {
            done(t);
        };
        eq_.scheduleAfter(path, [this, req = std::move(req)]() mutable {
            sendPacket(std::move(req));
        });
        return true;
    }

    const LineKey key{util::alignDown(a.addr, 64) & addrMask_,
                      a.orient};
    const unsigned word = static_cast<unsigned>((a.addr % 64) / 8);

    // A fill for this line is already in flight: coalesce into its
    // target list instead of occupying a second queue slot.
    if (MshrEntry *entry = mshrs_.find(key)) {
        accesses_.inc();
        llcMisses_.inc();
        mshrCoalesced_.inc();
        RCNVM_TRACE_INSTANT("mshr.coalesce",
                            util::ChromeTracer::kPidCache, core,
                            eq_.now(), key.addr);
        entry->targets.push_back(MshrTarget{core, word, a.isWrite,
                                            a.prefetchL3,
                                            std::move(done)});
        return true;
    }

    // Warm the lower-level sets while the L1 scan runs; on the usual
    // L1 miss their tag reads then hit the host's cache.
    l2_[core]->prefetchSet(key);
    l3_->prefetchSet(key);

    if (a.prefetchL3) {
        // Group-caching prefetch: install the line in the shared
        // LLC without disturbing the private caches, so the pinned
        // group does not thrash L1/L2 (Sec. 5).
        if (l3_->find(key)) {
            accesses_.inc();
            l3Hits_.inc();
            eq_.scheduleAfter(config_.cyc(config_.l3Latency),
                              [done = std::move(done), this]() mutable {
                                  done(eq_.now());
                              });
            return true;
        }
        if (mshrs_.full() ||
            wbBuffer_.size() >= config_.wbBufferDepth) {
            retries_.inc();
            ++pendingRetries_;
            RCNVM_TRACE_INSTANT("retry", util::ChromeTracer::kPidCache,
                                core, eq_.now(), key.addr);
            return false;
        }
        accesses_.inc();
        llcMisses_.inc();
        MshrEntry *entry = mshrs_.allocate(key);
        RCNVM_TRACE_INSTANT("mshr.alloc", util::ChromeTracer::kPidCache,
                            core, eq_.now(), key.addr);
        entry->targets.push_back(
            MshrTarget{core, word, false, true, std::move(done)});
        mem::MemPacket req;
        req.addr = key.addr;
        req.orient = key.orient;
        req.priority = a.priority;
        req.onComplete = [this, idx = mshrs_.indexOf(*entry)](Tick) {
            onFillComplete(idx);
        };
        const Tick path = config_.cyc(config_.l3Latency);
        eq_.scheduleAfter(path,
                          [this, req = std::move(req)]() mutable {
                              sendPacket(std::move(req));
                          });
        return true;
    }

    CpuCycles lat = config_.l1Latency;

    // L1.
    if (CacheLine *line = l1_[core]->find(key)) {
        accesses_.inc();
        l1Hits_.inc();
        if (a.isWrite) {
            if (line->state == MesiState::Shared)
                lat += coherenceOnWrite(core, key, sharersOf(key));
            line->state = MesiState::Modified;
            if (CacheLine *l2line = l2_[core]->find(key))
                l2line->state = MesiState::Modified;
            if (CacheLine *l3line = l3_->find(key))
                l3line->state = MesiState::Modified;
            lat += onWrite(key, word);
        }
        eq_.scheduleAfter(config_.cyc(lat),
                          [done = std::move(done), this]() mutable {
                              done(eq_.now());
                          });
        return true;
    }

    // L2.
    lat += config_.l2Latency;
    if (CacheLine *line = l2_[core]->find(key)) {
        accesses_.inc();
        l2Hits_.inc();
        MesiState fill_state = line->state;
        if (a.isWrite) {
            if (line->state == MesiState::Shared)
                lat += coherenceOnWrite(core, key, sharersOf(key));
            line->state = MesiState::Modified;
            fill_state = MesiState::Modified;
            if (CacheLine *l3line = l3_->find(key))
                l3line->state = MesiState::Modified;
            lat += onWrite(key, word);
        }
        if (auto v1 = l1_[core]->insert(key, fill_state)) {
            if (v1->state == MesiState::Modified) {
                if (CacheLine *l2v = l2_[core]->find(v1->key))
                    l2v->state = MesiState::Modified;
            }
        }
        eq_.scheduleAfter(config_.cyc(lat),
                          [done = std::move(done), this]() mutable {
                              done(eq_.now());
                          });
        return true;
    }

    // L3 + directory.
    lat += config_.l3Latency;
    if (CacheLine *line = l3_->find(key)) {
        accesses_.inc();
        l3Hits_.inc();
        SharerMask &sharers = l3_->sharers(*line);
        lat += coherenceOnRead(core, key, sharers);
        MesiState fill_state = MesiState::Shared;
        if (a.isWrite) {
            lat += coherenceOnWrite(core, key, sharers);
            line->state = MesiState::Modified;
            fill_state = MesiState::Modified;
            lat += onWrite(key, word);
        }
        fillPrivate(core, key, fill_state, *line);
        eq_.scheduleAfter(config_.cyc(lat),
                          [done = std::move(done), this]() mutable {
                              done(eq_.now());
                          });
        return true;
    }

    // Write-back race: the line was evicted dirty and is parked in
    // the write-back buffer. Forward it back up instead of letting
    // the stale copy in memory win the race with the write-back.
    for (auto it = wbBuffer_.begin(); it != wbBuffer_.end(); ++it) {
        if (*it == key) {
            wbBuffer_.erase(it);
            accesses_.inc();
            wbForwards_.inc();
            // Back-invalidation at eviction removed every private
            // copy, so no coherence traffic is needed; the line
            // re-enters dirty because memory never saw the data.
            CpuCycles extra;
            CacheLine &l3line = fillL3(key, MesiState::Modified,
                                       fillPartners(key), extra);
            if (a.isWrite)
                extra += onWrite(key, word);
            fillPrivate(core, key, MesiState::Modified, l3line);
            eq_.scheduleAfter(config_.cyc(lat + extra),
                              [done = std::move(done), this]() mutable {
                                  done(eq_.now());
                              });
            return true;
        }
    }

    // Miss to memory. Refuse (and let the core retry) rather than
    // growing any structure without bound.
    if (mshrs_.full() || wbBuffer_.size() >= config_.wbBufferDepth) {
        retries_.inc();
        ++pendingRetries_;
        RCNVM_TRACE_INSTANT("retry", util::ChromeTracer::kPidCache,
                            core, eq_.now(), key.addr);
        return false;
    }

    accesses_.inc();
    llcMisses_.inc();
    MshrEntry *entry = mshrs_.allocate(key);
    RCNVM_TRACE_INSTANT("mshr.alloc", util::ChromeTracer::kPidCache,
                        core, eq_.now(), key.addr);
    entry->targets.push_back(MshrTarget{core, word, a.isWrite, false,
                                        std::move(done)});

    mem::MemPacket req;
    req.addr = key.addr;
    req.orient = key.orient;
    req.isWrite = false; // line fill; the write happens on return
    req.priority = a.priority;
    req.onComplete = [this, idx = mshrs_.indexOf(*entry)](Tick) {
            onFillComplete(idx);
        };

    const Tick path = config_.cyc(lat);
    eq_.scheduleAfter(path, [this, req = std::move(req)]() mutable {
        sendPacket(std::move(req));
    });
    return true;
}

unsigned
Hierarchy::pinRange(Addr addr, Orientation orient, std::uint64_t bytes,
                    bool pinned)
{
    unsigned changed = 0;
    const Addr first = util::alignDown(addr, 64);
    const Addr last = util::alignDown(addr + bytes - 1, 64);
    for (Addr a = first; a <= last; a += 64) {
        if (l3_->setPinned(LineKey{a & addrMask_, orient}, pinned))
            ++changed;
    }
    pinOps_.inc();
    return changed;
}

void
Hierarchy::registerStats(util::StatRegistry &r) const
{
    r.addCounter("cache.accesses", accesses_);
    r.addCounter("cache.l1Hits", l1Hits_);
    r.addCounter("cache.l2Hits", l2Hits_);
    r.addCounter("cache.l3Hits", l3Hits_);
    r.addCounter("cache.llcMisses", llcMisses_);
    r.addCounter("cache.writebacks", writebacks_);
    r.addCounter("cache.bypasses", bypasses_);
    r.addCounter("cache.mshrCoalesced", mshrCoalesced_);
    r.addCounter("cache.retries", retries_);
    r.addCounter("cache.wbForwards", wbForwards_);
    r.addSampled("cache.mshrOccupancySamples", mshrs_.occupancy());
    r.addFormula("cache.mshrOccupancy",
                 [](const util::StatRegistry &g) {
                     return g.sampled("cache.mshrOccupancySamples")
                         .mean();
                 });
    r.addFormula("cache.maxMshrOccupancy",
                 [](const util::StatRegistry &g) {
                     return g.sampled("cache.mshrOccupancySamples")
                         .max();
                 });
    r.addCounter("cache.synonymProbes", synonymProbes_);
    r.addCounter("cache.crossingsFound", crossingsFound_);
    r.addCounter("cache.synonymUpdates", synonymUpdates_);
    r.addCounter("cache.synonymTicks", synonymTicks_);
    r.addCounter("cache.cohRemoteFetches", cohRemoteFetches_);
    r.addCounter("cache.cohInvalidations", cohInvalidations_);
    r.addCounter("cache.cohTicks", cohTicks_);
    r.addCounter("cache.pinOps", pinOps_);
    r.addCounterFn("cache.pinnedEvictions", [this] {
        return static_cast<double>(l3_->pinnedEvictions());
    });
}

util::StatsMap
Hierarchy::stats() const
{
    util::StatRegistry r;
    registerStats(r);
    return r.snapshot();
}

void
Hierarchy::reset()
{
    for (auto &c : l1_)
        c->reset();
    for (auto &c : l2_)
        c->reset();
    l3_->reset();
    mshrs_.reset();
    deferred_.clear();
    std::fill(deferredInChannel_.begin(), deferredInChannel_.end(), 0u);
    wbBuffer_.clear();
    pendingRetries_ = 0;
    accesses_.reset();
    l1Hits_.reset();
    l2Hits_.reset();
    l3Hits_.reset();
    llcMisses_.reset();
    writebacks_.reset();
    bypasses_.reset();
    mshrCoalesced_.reset();
    retries_.reset();
    wbForwards_.reset();
    synonymProbes_.reset();
    crossingsFound_.reset();
    synonymUpdates_.reset();
    synonymTicks_.reset();
    cohRemoteFetches_.reset();
    cohInvalidations_.reset();
    cohTicks_.reset();
    pinOps_.reset();
}

} // namespace rcnvm::cache
