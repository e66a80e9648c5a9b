#include "olxp/serve/serve_scheduler.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace rcnvm::olxp::serve {

namespace {

/** Predicate band in value units: thresholds are drawn within this
 *  distance of the value-domain edge, making segments selective
 *  enough that chunk summaries can prune. */
constexpr std::uint64_t kPredBand = 256;
static_assert(kPredBand <= imdb::Table::valueRange);

/** Percentile-formula factory over a registered histogram name. */
util::StatRegistry::Formula
percentileOf(std::string name, double p)
{
    return [name = std::move(name), p](const util::StatRegistry &r) {
        return r.histogram(name).percentile(p);
    };
}

} // namespace

ServeScheduler::ServeScheduler(cpu::Machine &machine,
                               const workload::PlacedDatabase &pd,
                               const ServeConfig &config)
    : machine_(machine),
      pd_(pd),
      cfg_(config),
      optimizer_(pd, config.optimizer),
      baseSeed_(config.seed ? config.seed : machine.config().seed),
      executing_(machine.coreCount())
{
    if (machine_.coreCount() == 0)
        rcnvm_fatal("serve scheduler needs at least one core");
    if (cfg_.tenants.empty())
        rcnvm_fatal("serve scheduler needs at least one tenant");
    if (cfg_.slo && !cfg_.oltpFirst)
        rcnvm_fatal("serve scheduler: slo needs oltpFirst dispatch");

    tenants_.reserve(cfg_.tenants.size());
    for (std::size_t i = 0; i < cfg_.tenants.size(); ++i) {
        const TenantConfig &tc = cfg_.tenants[i];
        tenants_.emplace_back(tc, tc.tokensPerMTick / 1.0e6);
        TenantState &ts = tenants_.back();
        if (tc.cls == TenantClass::OltpLatency) {
            ts.oltp.emplace(pd_, tc.oltpInterArrival,
                            tc.oltpUpdateFraction,
                            baseSeed_ + 0x100 + i,
                            tc.oltpHotTupleFraction,
                            tc.oltpHotProbability);
        } else {
            ts.group = static_cast<int>(groups_.size());
            groups_.emplace_back(static_cast<unsigned>(i),
                                 tc.streams,
                                 baseSeed_ + 0x200 + i);
        }
    }
    backfillSlots_ = cfg_.slo && machine_.coreCount() > 1
                         ? machine_.coreCount() - 1
                         : machine_.coreCount();
    slotCeil_ = backfillSlots_;
    registerStats();
}

void
ServeScheduler::registerStats()
{
    util::StatRegistry &r = machine_.registry();
    r.addHistogram("serve.oltpLatency", oltpLatency_);
    r.addCounter("serve.oltpGenerated", oltpGenerated_);
    r.addCounter("serve.oltpCompleted", oltpCompleted_);
    r.addCounter("serve.oltpRejected", oltpRejected_);
    r.addCounter("serve.segmentsCompleted", segmentsCompleted_);
    r.addCounter("serve.streamScans", streamScans_);
    r.addCounter("serve.backfillDenied", backfillDenied_);
    r.addCounter("serve.chunksScanned", optimizer_.chunksScanned());
    r.addCounter("serve.chunksPruned", optimizer_.chunksPruned());
    r.addCounter("serve.colsPruned", optimizer_.colsPruned());
    r.addCounter("serve.scanMatches", scanMatches_);
    r.addCounter("serve.scanSum", scanSum_);
    r.addCounter("serve.sloBreaches", sloBreaches_);
    r.addGauge("serve.backfillSlots", [this] {
        return static_cast<double>(backfillSlots_);
    });
    const std::string hist = "serve.oltpLatency";
    r.addFormula(hist + "P50", percentileOf(hist, 0.50));
    r.addFormula(hist + "P95", percentileOf(hist, 0.95));
    r.addFormula(hist + "P99", percentileOf(hist, 0.99));
    for (TenantState &ts : tenants_) {
        const std::string base = "serve." + ts.cfg.name;
        r.addCounter(base + ".admitted", ts.admitted);
        r.addCounter(base + ".denied", ts.denied);
        r.addCounter(base + ".completed", ts.completed);
    }
    if (sim::EpochSampler *sampler = machine_.epochSampler()) {
        sampler->addGauge("serve.queueDepth", [this] {
            return static_cast<double>(queuedTotal());
        });
        sampler->addGauge("serve.parked", [this] {
            return static_cast<double>(parked_.size());
        });
        sampler->addGauge("serve.backfillSlots", [this] {
            return static_cast<double>(backfillSlots_);
        });
    }
}

ServeResult
ServeScheduler::run()
{
    sim::EventQueue &eq = machine_.eventQueue();

    for (std::size_t gi = 0; gi < groups_.size(); ++gi)
        pumpGroup(static_cast<unsigned>(gi));
    for (std::size_t ti = 0; ti < tenants_.size(); ++ti) {
        if (tenants_[ti].oltp)
            scheduleOltp(static_cast<unsigned>(ti));
    }
    if (cfg_.slo && cfg_.sloPeriod > Tick{0})
        eq.scheduleAfter(cfg_.sloPeriod, [this] { sloTick(); });
    dispatch();

    cpu::RunResult rr = machine_.serve();

    if (queuedTotal() != 0 || !parked_.empty() || inFlightCount_ != 0)
        rcnvm_panic("serve drain left ", queuedTotal(), " queued, ",
                    parked_.size(), " parked, and ", inFlightCount_,
                    " in-flight requests");

    ServeResult result;
    result.run = std::move(rr);
    result.oltpGenerated = oltpGenerated_.value();
    result.oltpCompleted = oltpCompleted_.value();
    result.oltpRejected = oltpRejected_.value();
    result.segmentsCompleted = segmentsCompleted_.value();
    result.streamScans = streamScans_.value();
    result.backfillDenied = backfillDenied_.value();
    result.chunksScanned = optimizer_.chunksScanned().value();
    result.chunksPruned = optimizer_.chunksPruned().value();
    result.colsPruned = optimizer_.colsPruned().value();
    result.sloBreaches = sloBreaches_.value();
    result.oltpP50 = oltpLatency_.percentile(0.50);
    result.oltpP95 = oltpLatency_.percentile(0.95);
    result.oltpP99 = oltpLatency_.percentile(0.99);
    result.scanChecksum = scanChecksum_;
    return result;
}

void
ServeScheduler::scheduleOltp(unsigned ti)
{
    sim::EventQueue &eq = machine_.eventQueue();
    const Tick when = eq.now() + tenants_[ti].oltp->nextGap();
    if (when >= cfg_.horizon)
        return;
    eq.schedule(when, [this, ti] { onOltpArrival(ti); });
}

void
ServeScheduler::onOltpArrival(unsigned ti)
{
    TenantState &ts = tenants_[ti];
    oltpGenerated_.inc();
    const Tick now = machine_.eventQueue().now();
    cpu::OpStream ops = ts.oltp->make();
    if (queuedTotal() < cfg_.runQueueCapacity && ts.bucket.tryTake(now)) {
        ts.admitted.inc();
        ServeRequest sr;
        sr.tenant = ti;
        sr.ops = std::move(ops);
        sr.arrival = now;
        (cfg_.oltpFirst ? oltpQueue_ : runQueue_).push_back(std::move(sr));
        dispatch();
    } else {
        // Open loop: over-budget or over-bound arrivals drop.
        ts.denied.inc();
        oltpRejected_.inc();
    }
    scheduleOltp(ti);
}

ScanQuery
ServeScheduler::nextSegment(ScanGroup &g)
{
    const TenantConfig &tc = tenants_[g.tenant].cfg;
    const imdb::Table &t = pd_.db->table(pd_.a);
    const unsigned pool = std::max(
        1u, std::min(cfg_.scanFields, t.schema().tupleWords()));

    ScanQuery q;
    q.table = pd_.a;
    q.predField = static_cast<unsigned>(g.rng.nextBounded(pool));
    q.aggField = static_cast<unsigned>(g.rng.nextBounded(pool));
    // Selective edge predicates: the serving mix models outlier
    // lookups, whose thresholds sit close enough to the domain edge
    // that chunk min/max summaries have real pruning power.
    const std::int64_t off =
        static_cast<std::int64_t>(g.rng.nextBounded(kPredBand));
    if (g.rng.nextBool(0.5)) {
        q.op = PredOp::Greater;
        q.threshold = imdb::Table::valueRange - 1 - off;
    } else {
        q.op = PredOp::Less;
        q.threshold = off + 1;
    }
    q.touchedFields.resize(pool);
    for (unsigned f = 0; f < pool; ++f)
        q.touchedFields[f] = f;

    std::uint64_t seg = tc.segmentTuples;
    if (seg == 0 || seg > t.tuples())
        seg = t.tuples();
    q.t0 = g.cursor;
    q.t1 = std::min(g.cursor + seg, t.tuples());
    g.cursor = q.t1 >= t.tuples() ? 0 : q.t1;
    return q;
}

void
ServeScheduler::pumpGroup(unsigned gi)
{
    ScanGroup &g = groups_[gi];
    const TenantConfig &tc = tenants_[g.tenant].cfg;
    const unsigned parallelism = std::max(1u, tc.segmentParallelism);
    const Tick now = machine_.eventQueue().now();
    if (now >= cfg_.horizon)
        return;
    while (g.inFlight < parallelism &&
           (cfg_.maxSegmentsPerGroup == 0 ||
            g.issued < cfg_.maxSegmentsPerGroup)) {
        ++g.issued;
        const ScanQuery q = nextSegment(g);
        ServeRequest r;
        r.tenant = g.tenant;
        r.backfill = true;
        r.group = static_cast<int>(gi);
        r.tuples = q.t1 - q.t0;
        r.ops = optimizer_.build(q);
        r.result = optimizer_.evaluate(q);
        r.arrival = now;
        ++g.inFlight;
        admitBackfill(std::move(r));
    }
}

void
ServeScheduler::admitBackfill(ServeRequest request)
{
    TenantState &ts = tenants_[request.tenant];
    const Tick now = machine_.eventQueue().now();
    // Parked requests are older; admitting around them would starve
    // the tenants they belong to.
    if (parked_.empty() &&
        queuedTotal() < cfg_.runQueueCapacity &&
        ts.bucket.tryTake(now)) {
        ts.admitted.inc();
        runQueue_.push_back(std::move(request));
        return;
    }
    ts.denied.inc();
    backfillDenied_.inc();
    const unsigned ti = request.tenant;
    parked_.push_back(std::move(request));
    scheduleRetry(ti);
}

void
ServeScheduler::admitParked()
{
    const Tick now = machine_.eventQueue().now();
    // Per-tenant FIFO, cross-tenant work-conserving: a tenant whose
    // budget ran dry blocks only its own later segments.
    std::vector<bool> blocked(tenants_.size(), false);
    for (auto it = parked_.begin(); it != parked_.end();) {
        if (queuedTotal() >= cfg_.runQueueCapacity)
            break;
        TenantState &ts = tenants_[it->tenant];
        if (blocked[it->tenant]) {
            ++it;
            continue;
        }
        if (!ts.bucket.tryTake(now)) {
            blocked[it->tenant] = true;
            scheduleRetry(it->tenant);
            ++it;
            continue;
        }
        ts.admitted.inc();
        runQueue_.push_back(std::move(*it));
        it = parked_.erase(it);
    }
}

void
ServeScheduler::scheduleRetry(unsigned ti)
{
    const TenantState &ts = tenants_[ti];
    const double rate = ts.cfg.tokensPerMTick / 1.0e6;
    if (rate <= 0.0 || retryScheduled_)
        return; // capacity denials retry at the next completion
    retryScheduled_ = true;
    const Tick delta{std::max<Tick::value_type>(
        1, static_cast<Tick::value_type>(1.0 / rate))};
    machine_.eventQueue().scheduleAfter(delta, [this] {
        retryScheduled_ = false;
        admitParked();
        dispatch();
    });
}

void
ServeScheduler::dispatch()
{
    const auto findIdle = [this]() -> int {
        for (unsigned c = 0; c < machine_.coreCount(); ++c) {
            if (!executing_[c].has_value() && machine_.coreIdle(c))
                return static_cast<int>(c);
        }
        return -1;
    };
    const auto start = [this](int core, std::deque<ServeRequest> &q,
                              bool priority) {
        const unsigned c = static_cast<unsigned>(core);
        ServeRequest &req = executing_[c].emplace(std::move(q.front()));
        q.pop_front();
        ++inFlightCount_;
        req.source.emplace(std::move(req.ops));
        machine_.startOnCore(c, *req.source, priority,
                             [this, c](Tick t) { onComplete(c, t); });
    };

    // Latency class first: OLTP may take any idle core; backfill is
    // limited to the (SLO-preemptible) slot count. In FIFO mode the
    // OLTP queue stays empty and OLTP requests wait in the run queue
    // behind the segments admitted before them.
    while (!oltpQueue_.empty()) {
        const int core = findIdle();
        if (core < 0)
            return;
        start(core, oltpQueue_, true);
    }
    while (!runQueue_.empty() && backfillBusy_ < backfillSlots_) {
        const int core = findIdle();
        if (core < 0)
            return;
        if (runQueue_.front().backfill)
            ++backfillBusy_;
        start(core, runQueue_, false);
    }
}

void
ServeScheduler::onComplete(unsigned core, Tick finish)
{
    ServeRequest &req = *executing_[core];
    TenantState &ts = tenants_[req.tenant];
    ts.completed.inc();
    const bool backfill = req.backfill;
    const int gi = req.group;
    if (!backfill) {
        const Tick latency =
            finish > req.arrival ? finish - req.arrival : Tick{0};
        if (req.arrival >= cfg_.measureFrom)
            oltpLatency_.sample(latency.value());
        sloWindow_.sample(latency.value());
        oltpCompleted_.inc();
    } else {
        segmentsCompleted_.inc();
        ScanGroup &g = groups_[static_cast<unsigned>(gi)];
        // The shared cursor credits every attached stream: N streams
        // consumed this segment for one segment of memory traffic.
        streamScans_.inc(g.streams);
        scanMatches_.inc(req.result.matches);
        scanSum_.inc(static_cast<std::uint64_t>(req.result.sum));
        scanChecksum_.merge(req.result);
        --backfillBusy_;
        --g.inFlight;
    }
    executing_[core].reset();
    --inFlightCount_;

    if (backfill)
        pumpGroup(static_cast<unsigned>(gi));
    admitParked();
    dispatch();
}

void
ServeScheduler::sloTick()
{
    sim::EventQueue &eq = machine_.eventQueue();
    const double p99 = sloWindow_.percentile(0.99);
    sloWindow_.reset();
    const unsigned maxSlots = machine_.coreCount() > 1
                                  ? machine_.coreCount() - 1
                                  : 1;
    slotCeil_ = std::min(std::max(slotCeil_, backfillFloor), maxSlots);
    if (probeCountdown_ > 0)
        --probeCountdown_;
    if (p99 > static_cast<double>(cfg_.sloTarget.value())) {
        // Breach: preempt one backfill dispatch slot (takes effect
        // as running segments complete; no mid-plan abort) and pin
        // the ceiling there — the breaching level is re-probed only
        // after the countdown, because every probe window that
        // breaches spends part of the 1% tail budget.
        sloBreaches_.inc();
        healthyStreak_ = 0;
        if (backfillSlots_ > backfillFloor)
            --backfillSlots_;
        slotCeil_ = backfillSlots_;
        probeInterval_ = std::min(32u, probeInterval_ * 2);
        probeCountdown_ = probeInterval_;
    } else if (++healthyStreak_ >= 2) {
        // Two healthy windows in a row (or no OLTP samples at all,
        // e.g. during drain): grow backfill back up to the ceiling —
        // shrink fast, grow slow keeps the loop off the tail.
        if (backfillSlots_ < slotCeil_) {
            ++backfillSlots_;
            dispatch();
        } else if (probeCountdown_ == 0 && slotCeil_ < maxSlots) {
            ++slotCeil_;
            ++backfillSlots_;
            dispatch();
        }
    }

    // Reschedule only while the serving layer itself has work (or
    // can still generate it), so the run can drain. Deliberately NOT
    // eq.pending(): the epoch sampler reschedules itself while any
    // other event is pending, so the two would keep each other alive
    // and the run would never drain.
    if (eq.now() < cfg_.horizon || inFlightCount_ > 0 ||
        queuedTotal() > 0 || !parked_.empty())
        eq.scheduleAfter(cfg_.sloPeriod, [this] { sloTick(); });
}

} // namespace rcnvm::olxp::serve
