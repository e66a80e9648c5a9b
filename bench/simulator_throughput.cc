/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot
 * paths: event queue throughput, address mapping, bank state
 * machine, and end-to-end simulated-access rate. These guard
 * against performance regressions of the simulator itself.
 */

#include <benchmark/benchmark.h>

#include <optional>

#include "core/presets.hh"
#include "cpu/machine.hh"
#include "mem/bank.hh"
#include "mem/geometry.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "util/logging.hh"

using namespace rcnvm;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1024; ++i) {
            // rcnvm-lint: capture-ok (run() drains before exit)
            eq.schedule(static_cast<Tick>(i), [&sink] { ++sink; });
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_AddressEncodeDecode(benchmark::State &state)
{
    const mem::AddressMap map(mem::Geometry::rcNvm());
    mem::DecodedAddr d;
    d.row = 437;
    d.col = 182;
    for (auto _ : state) {
        const Addr a = map.encode(d, Orientation::Row);
        benchmark::DoNotOptimize(
            map.decode(a, Orientation::Row).col);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AddressEncodeDecode);

void
BM_AddressConvert(benchmark::State &state)
{
    const mem::AddressMap map(mem::Geometry::rcNvm());
    Addr a = 0x12345678;
    for (auto _ : state) {
        a = map.convert(a, Orientation::Row, Orientation::Column);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AddressConvert);

void
BM_BankAccessStream(benchmark::State &state)
{
    const mem::TimingParams t = mem::TimingParams::rcNvm();
    mem::Bank bank;
    unsigned col = 0;
    for (auto _ : state) {
        const auto s =
            bank.access(bank.nextReady(), Orientation::Column, 0,
                        col++ & 1023, false, t);
        benchmark::DoNotOptimize(s.finish);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BankAccessStream);

void
BM_ChannelControllerThroughput(benchmark::State &state)
{
    // The controller hot path in isolation: a four-bank interleaved
    // read stream with periodic row crossings, driven directly at
    // the memory system so no cache or core costs are measured.
    util::setLogLevel(util::LogLevel::Quiet);
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::RcNvm, eq);
    const mem::AddressMap &map = memory.map();
    std::vector<Addr> addrs;
    mem::DecodedAddr d;
    for (unsigned i = 0; i < 4096; ++i) {
        d.bank = i % 4;
        d.row = (i / 64) % 512;
        d.col = i % 128;
        addrs.push_back(map.encode(d, Orientation::Row));
    }
    std::uint64_t completions = 0;
    for (auto _ : state) {
        for (const Addr a : addrs) {
            mem::MemPacket req;
            req.addr = a;
            req.orient = Orientation::Row;
            req.onComplete = [&completions](Tick) { ++completions; };
            memory.issue(std::move(req));
            // Drain in chunks so queues stay at realistic depths.
            if (!memory.canAccept(a, Orientation::Row))
                eq.run();
        }
        eq.run();
        benchmark::DoNotOptimize(completions);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ChannelControllerThroughput);

void
BM_MachineConstruction(benchmark::State &state)
{
    util::setLogLevel(util::LogLevel::Quiet);
    cpu::MachineConfig config;
    config.device = mem::DeviceKind::RcNvm;
    for (auto _ : state) {
        cpu::Machine machine(config);
        benchmark::DoNotOptimize(&machine);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineConstruction);

/** Time whole runs of @p plans, each on a fresh machine built from
 *  @p config. Building and destroying the machine stay outside the
 *  timed region (BM_MachineConstruction measures them). */
void
timeRuns(benchmark::State &state, const cpu::MachineConfig &config,
         const std::vector<cpu::AccessPlan> &plans)
{
    std::int64_t ops = 0;
    for (const cpu::AccessPlan &plan : plans)
        ops += static_cast<std::int64_t>(plan.size());
    std::uint64_t simTicks = 0;
    std::optional<cpu::Machine> machine;
    for (auto _ : state) {
        state.PauseTiming();
        machine.emplace(config);
        state.ResumeTiming();
        const cpu::RunResult r = machine->run(plans);
        simTicks += r.ticks.value();
        benchmark::DoNotOptimize(r.ticks);
        state.PauseTiming();
        machine.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * ops);
    state.counters["simTicks/s"] = benchmark::Counter(
        static_cast<double>(simTicks), benchmark::Counter::kIsRate);
}

void
BM_EndToEndSimulatedAccesses(benchmark::State &state)
{
    // Simulation rate from cold caches, which tracks the
    // event-driven core/cache/memory path that dominates experiment
    // runtime.
    util::setLogLevel(util::LogLevel::Quiet);
    cpu::MachineConfig config;
    config.device = mem::DeviceKind::RcNvm;
    cpu::AccessPlan plan;
    for (unsigned i = 0; i < 4096; ++i)
        plan.push_back(cpu::MemOp::load((Addr{i} * 64) & 0xffffffff));
    timeRuns(state, config, {plan});
}
BENCHMARK(BM_EndToEndSimulatedAccesses);

/** One mixed load/store plan per core (a store every third access),
 *  spread over every channel of @p map. */
std::vector<cpu::AccessPlan>
crossChannelPlans(const mem::AddressMap &map, unsigned cores,
                  unsigned ops_per_core)
{
    const mem::Geometry &g = map.geometry();
    std::vector<cpu::AccessPlan> plans(cores);
    for (unsigned core = 0; core < cores; ++core) {
        for (unsigned i = 0; i < ops_per_core; ++i) {
            mem::DecodedAddr d;
            d.channel = (core + i) % g.channels;
            d.rank = i % g.ranksPerChannel;
            d.bank = (i / 3) % g.banksPerRank;
            d.subarray = (i / 7) % g.subarraysPerBank;
            d.row = (core * 31 + i * 7) % g.rowsPerSubarray;
            d.col = ((i * 13) % (g.colsPerSubarray / 8)) * 8;
            const Addr a = map.encode(d, Orientation::Row);
            plans[core].push_back(i % 3 == 0 ? cpu::MemOp::store(a)
                                             : cpu::MemOp::load(a));
        }
    }
    return plans;
}

void
BM_FourChannelSmallLlc(benchmark::State &state)
{
    // A 4-channel RC-NVM machine behind a deliberately small LLC:
    // four cores stream mixed loads/stores spread across all
    // channels, so controllers and write-back drains carry most of
    // the event load.
    util::setLogLevel(util::LogLevel::Quiet);
    cpu::MachineConfig config;
    config.device = mem::DeviceKind::RcNvm;
    mem::Geometry geometry = mem::geometryFor(config.device);
    geometry.channels = 4;
    config.geometry = geometry;
    config.hierarchy.l3 =
        cache::CacheConfig{"L3", 64 * 1024, 64, 8};
    config.seed = 42;
    const mem::AddressMap map(*config.geometry);
    timeRuns(state, config, crossChannelPlans(map, 4, 4096));
}
BENCHMARK(BM_FourChannelSmallLlc)->Unit(benchmark::kMillisecond);

void
BM_Serve16Machine(benchmark::State &state)
{
    // The serving machine preset (core::serve16Machine: 16 cores,
    // 8 channels, 16 MB LLC, deep MSHR and controller queues):
    // sixteen cores stream mixed loads/stores spread across all
    // eight channels.
    util::setLogLevel(util::LogLevel::Quiet);
    cpu::MachineConfig config =
        core::serve16Machine(mem::DeviceKind::RcNvm);
    config.seed = 42;
    const mem::AddressMap map(*config.geometry);
    timeRuns(state, config,
             crossChannelPlans(map, config.hierarchy.cores, 2048));
}
BENCHMARK(BM_Serve16Machine)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
