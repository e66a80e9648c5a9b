#include "mem/memory_system.hh"

#include "util/logging.hh"

namespace rcnvm::mem {

Geometry
geometryFor(DeviceKind kind)
{
    switch (kind) {
      case DeviceKind::Dram:
      case DeviceKind::GsDram:
        return Geometry::dram();
      case DeviceKind::Rram:
        return Geometry::rram();
      case DeviceKind::RcNvm:
        return Geometry::rcNvm();
    }
    rcnvm_panic("unknown device kind");
}

MemorySystem::MemorySystem(DeviceKind kind, sim::EventQueue &eq)
    : MemorySystem(kind, eq, timingFor(kind), false, 32, geometryFor(kind),
                   SchedPolicyKind::FrFcfs)
{
}

MemorySystem::MemorySystem(DeviceKind kind, sim::EventQueue &eq,
                           const TimingParams &timing, bool salp,
                           unsigned queue_capacity,
                           const Geometry &geometry,
                           SchedPolicyKind sched)
    : kind_(kind), caps_(capsFor(kind)), map_(geometry)
{
    for (unsigned c = 0; c < map_.geometry().channels; ++c) {
        channels_.push_back(std::make_unique<ChannelController>(
            map_, timing, eq, queue_capacity, salp, c, sched));
    }
}

bool
MemorySystem::canAccept(Addr addr, Orientation orient) const
{
    return channels_[map_.decode(addr, orient).channel]->canAccept();
}

unsigned
MemorySystem::channelOf(Addr addr, Orientation orient) const
{
    return map_.decode(addr, orient).channel;
}

void
MemorySystem::checkCaps(const MemPacket &pkt) const
{
    if (pkt.orient == Orientation::Column && !caps_.columnAccess) {
        rcnvm_panic("column-oriented request issued to ",
                    toString(kind_),
                    ", which has no column access support");
    }
    if (pkt.gathered && !caps_.gather)
        rcnvm_panic("gathered request issued to ", toString(kind_));
}

void
MemorySystem::issue(MemPacket &&req)
{
    checkCaps(req);
    const DecodedAddr d = map_.decode(req.addr, req.orient);
    channels_[d.channel]->enqueue(std::move(req));
}

bool
MemorySystem::tryIssue(MemPacket &pkt)
{
    // Decoded once: this runs for every miss, and routing through
    // canAccept() + issue() would repeat the address decode.
    const DecodedAddr d = map_.decode(pkt.addr, pkt.orient);
    if (!channels_[d.channel]->canAccept()) {
        rejectedIssues_.inc();
        return false;
    }
    checkCaps(pkt);
    channels_[d.channel]->enqueue(std::move(pkt));
    return true;
}

void
MemorySystem::setRetryCallback(std::function<void()> cb)
{
    // All channels share the one client-side retry hook: a client
    // that was refused retries tryIssue() per packet, so a spare
    // wakeup from another channel is harmless.
    for (auto &ch : channels_)
        ch->setSpaceCallback(cb);
}

void
MemorySystem::registerStats(util::StatRegistry &r) const
{
    for (const auto &ch : channels_) {
        const ControllerStats &s = ch->stats();
        r.addCounter("mem.reads", s.reads);
        r.addCounter("mem.writes", s.writes);
        r.addCounter("mem.gathered", s.gathered);
        r.addCounter("mem.rowAccesses", s.rowAccesses);
        r.addCounter("mem.colAccesses", s.colAccesses);
        r.addCounter("mem.bufferHits", s.bufferHits);
        r.addCounter("mem.bufferMisses", s.bufferMisses);
        r.addCounter("mem.bufferConflicts", s.bufferConflicts);
        r.addCounter("mem.orientationSwitches",
                     s.orientationSwitches);
        r.addCounter("mem.rowBufferHits", s.rowBufferHits);
        r.addCounter("mem.rowBufferMisses", s.rowBufferMisses);
        r.addCounter("mem.colBufferHits", s.colBufferHits);
        r.addCounter("mem.colBufferMisses", s.colBufferMisses);
        r.addCounter("mem.busBusyTicks", s.busBusyTicks);
        r.addCounter("mem.wakeups", s.wakeups);
        r.addValue("mem.energyPJ", s.energyPJ);
        r.addSampled("mem.queueWaitTicks", s.queueWaitTicks);
        r.addSampled("mem.serviceTicks", s.serviceTicks);
        r.addSampled("mem.bankQueueDepth", s.bankQueueDepth);
        r.addSampled("mem.queueOccupancy", s.queueOccupancy);
        r.addHistogram("mem.queueWaitHist", s.queueWaitHist);
    }
    r.addCounter("mem.rejectedIssues", rejectedIssues_);

    // Derived statistics are report-time formulas over the merged
    // per-channel inputs: they exist only as Scalar snapshot entries
    // and can never be corrupted by a downstream additive merge.
    r.addFormula("mem.requests", [](const util::StatRegistry &g) {
        return g.counter("mem.reads") + g.counter("mem.writes");
    });
    r.addFormula("mem.avgQueueWaitTicks",
                 [](const util::StatRegistry &g) {
                     return g.sampled("mem.queueWaitTicks").mean();
                 });
    // Tail of the controller queueing delay (inclusive right edge
    // of the log2 bucket holding the 99th-percentile wait, over all
    // channels — a conservative upper bound).
    r.addFormula("mem.queueWaitP99",
                 [](const util::StatRegistry &g) {
                     return g.histogram("mem.queueWaitHist")
                         .percentile(0.99);
                 });
    r.addFormula("mem.avgServiceTicks",
                 [](const util::StatRegistry &g) {
                     return g.sampled("mem.serviceTicks").mean();
                 });
    r.addFormula("mem.avgBankQueueDepth",
                 [](const util::StatRegistry &g) {
                     return g.sampled("mem.bankQueueDepth").mean();
                 });
    r.addFormula("mem.maxBankQueueDepth",
                 [](const util::StatRegistry &g) {
                     return g.sampled("mem.bankQueueDepth").max();
                 });
    r.addFormula("mem.avgQueueOccupancy",
                 [](const util::StatRegistry &g) {
                     return g.sampled("mem.queueOccupancy").mean();
                 });
    r.addFormula("mem.maxQueueOccupancy",
                 [](const util::StatRegistry &g) {
                     return g.sampled("mem.queueOccupancy").max();
                 });
    // Fraction of the statistics window the channel data buses spent
    // transferring (gathered lines hold the bus for two slots).
    r.addFormula("mem.busUtilization",
                 [this](const util::StatRegistry &g) {
                     double elapsed = 0;
                     for (const auto &ch : channels_)
                         elapsed += static_cast<double>(
                             ch->statsElapsed().value());
                     return elapsed > 0
                                ? g.counter("mem.busBusyTicks") /
                                      elapsed
                                : 0.0;
                 });
    r.addFormula("mem.bufferMissRate",
                 [](const util::StatRegistry &g) {
                     const double hits = g.counter("mem.bufferHits");
                     const double total = g.value("mem.requests");
                     return total > 0 ? 1.0 - hits / total : 0.0;
                 });
}

util::StatsMap
MemorySystem::stats() const
{
    util::StatRegistry r;
    registerStats(r);
    return r.snapshot();
}

std::size_t
MemorySystem::queuedTotal() const
{
    std::size_t n = 0;
    for (const auto &ch : channels_)
        n += ch->queued();
    return n;
}

} // namespace rcnvm::mem
