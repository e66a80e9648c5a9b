#include "cpu/machine.hh"

#include <algorithm>
#include <string>

#include "util/chrome_trace.hh"
#include "util/logging.hh"

namespace rcnvm::cpu {

Machine::Machine(const MachineConfig &config) : config_(config)
{
    // Tracing attaches at machine construction so every component's
    // probes see a consistent enabled/disabled state for the run.
    util::ChromeTracer::enableFromEnv();

    const mem::TimingParams timing =
        config_.timing ? *config_.timing
                       : mem::timingFor(config_.device);
    const mem::Geometry geometry =
        config_.geometry ? *config_.geometry
                         : mem::geometryFor(config_.device);

    memory_ = std::make_unique<mem::MemorySystem>(
        config_.device, eq_, timing, config_.salp,
        config_.memQueueCapacity, geometry, config_.schedPolicy);
    tier_ = memory_.get();
    if (config_.tier.enabled) {
        near_ = std::make_unique<mem::MemorySystem>(
            mem::DeviceKind::Dram, eq_, mem::TimingParams::ddr3_1333(),
            false, config_.memQueueCapacity, mem::nearTierGeometry(geometry),
            config_.schedPolicy);
        hybrid_ = std::make_unique<mem::HybridMemory>(
            *memory_, *near_, config_.tier, eq_);
        tier_ = hybrid_.get();
    }
    hierarchy_ = std::make_unique<cache::Hierarchy>(
        config_.hierarchy, eq_, *tier_);
    for (unsigned c = 0; c < config_.hierarchy.cores; ++c) {
        cores_.push_back(std::make_unique<Core>(c, eq_, *hierarchy_,
                                                config_.window));
    }

    hierarchy_->registerStats(registry_);
    tier_->registerStats(registry_);
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        const Core *core = cores_[c].get();
        registry_.addCounterFn("cpu.memOps", [core] {
            return static_cast<double>(core->memOps());
        });
        registry_.addCounterFn("cpu.stallTicks", [core] {
            return static_cast<double>(core->stallTicks());
        });
        registry_.addCounterFn("cpu.retries", [core] {
            return static_cast<double>(core->retries());
        });
        registry_.addCounterFn("cpu.retryStallTicks", [core] {
            return static_cast<double>(core->retryStallTicks());
        });
        registry_.addGauge(
            "cpu.core" + std::to_string(c) + ".retryStallTicks",
            [core] {
                return static_cast<double>(core->retryStallTicks());
            });
    }

    if (config_.epochTicks > Tick{}) {
        sampler_ = std::make_unique<sim::EpochSampler>(eq_);
        sampler_->addGauge("mem.queued", [this] {
            return static_cast<double>(tier_->queuedTotal());
        });
        sampler_->addGauge("cache.mshrUsed", [this] {
            return static_cast<double>(hierarchy_->mshrInUse());
        });
        sampler_->addGauge("cache.llcMisses", [this] {
            return static_cast<double>(hierarchy_->llcMissCount());
        });
    }
}

RunResult
Machine::drain(Tick start, const Tick *end)
{
    if (sampler_)
        sampler_->start(config_.epochTicks);

    eq_.run();

    for (std::size_t c = 0; c < cores_.size(); ++c) {
        if (!cores_[c]->finished())
            rcnvm_panic("simulation deadlock: core ", c,
                        " never finished");
    }
    // Every packet completed: nothing may be left in the event
    // slab, a controller queue, an MSHR, the hierarchy's deferred or
    // write-back lists, or a hybrid migration once the event queue
    // is empty.
    const std::size_t migrations =
        hybrid_ ? hybrid_->migrationsInFlight() : 0;
    if (eq_.occupiedSlots() != 0 || tier_->queuedTotal() != 0 ||
        hierarchy_->mshrInUse() != 0 ||
        hierarchy_->parkedPackets() != 0 || migrations != 0)
        rcnvm_panic("run ended undrained: ", eq_.occupiedSlots(),
                    " occupied event slots, ", tier_->queuedTotal(),
                    " queued requests, ", hierarchy_->mshrInUse(),
                    " MSHRs in use, ", hierarchy_->parkedPackets(),
                    " parked packets, ", migrations,
                    " migrations in flight");

    // One snapshot of the shared registry replaces the old per-layer
    // StatsMap merge: derived values are formulas evaluated here,
    // over fully aggregated inputs, so nothing non-additive is ever
    // pushed through StatsMap::merge.
    RunResult result;
    result.ticks = (end != nullptr ? *end : eq_.now()) - start;
    result.stats = registry_.snapshot();
    result.stats.set("run.ticks", static_cast<double>(result.ticks.value()));
    if (sampler_)
        result.series = sampler_->series();
    return result;
}

RunResult
Machine::run(const std::vector<AccessPlan> &plans)
{
    if (plans.size() > cores_.size())
        rcnvm_fatal("more plans (", plans.size(), ") than cores (",
                    cores_.size(), ")");

    std::vector<PlanOpSource> sources(plans.begin(), plans.end());
    std::vector<OpSource *> cores;
    for (PlanOpSource &s : sources)
        cores.push_back(&s);
    return runSources(cores);
}

RunResult
Machine::run(const AccessPlan &plan)
{
    return run(std::vector<AccessPlan>{plan});
}

RunResult
Machine::runSources(const std::vector<OpSource *> &sources)
{
    if (sources.size() > cores_.size())
        rcnvm_fatal("more op sources (", sources.size(),
                    ") than cores (", cores_.size(), ")");

    const Tick start = eq_.now();
    Tick latest = start;
    for (std::size_t i = 0; i < sources.size(); ++i) {
        // An exhausted source (an empty plan) idles its core: no
        // advance event is scheduled for it.
        if (sources[i] == nullptr || sources[i]->peek() == nullptr)
            continue;
        cores_[i]->start(*sources[i], [&latest](Tick t) {
            latest = std::max(latest, t);
        });
    }
    return drain(start, &latest);
}

void
Machine::startOnCore(unsigned c, OpSource &source, bool priority,
                     util::UniqueFunction<void(Tick)> on_finish)
{
    if (c >= cores_.size())
        rcnvm_fatal("startOnCore: core ", c, " of ", cores_.size());
    if (!cores_[c]->finished())
        rcnvm_fatal("startOnCore: core ", c, " is busy");
    cores_[c]->setPriority(priority);
    cores_[c]->start(source, std::move(on_finish));
}

RunResult
Machine::serve()
{
    return drain(eq_.now(), nullptr);
}

} // namespace rcnvm::cpu
