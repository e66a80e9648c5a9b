/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot
 * paths: event queue throughput, address mapping, bank state
 * machine, and end-to-end simulated-access rate. These guard
 * against performance regressions of the simulator itself.
 */

#include <benchmark/benchmark.h>

#include <optional>

#include "cache/hierarchy.hh"
#include "core/presets.hh"
#include "cpu/machine.hh"
#include "mem/bank.hh"
#include "mem/geometry.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "util/logging.hh"
#include "workload/tables.hh"

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
BM_ChannelControllerMixed(benchmark::State &state)
{
    // Scheduling rounds over many banks: core::serve16Machine's
    // RC-NVM geometry (32 banks per channel) and 128-deep queues
    // under read priority. Row and column requests land on every
    // bank, revisiting a few buffers so hits queue behind
    // conflicting fronts; every third is a write and every fourth
    // is flagged, so both tiers compete.
    util::setLogLevel(util::LogLevel::Quiet);
    const cpu::MachineConfig config =
        core::serve16Machine(mem::DeviceKind::RcNvm);
    const mem::Geometry &g = *config.geometry;
    const mem::TimingParams timing = mem::timingFor(config.device);
    sim::EventQueue eq;
    mem::MemorySystem memory(config.device, eq, timing, false,
                             config.memQueueCapacity, g,
                             mem::SchedPolicyKind::ReadPriority);
    struct Request {
        Addr addr;
        Orientation orient;
    };
    std::vector<Request> requests;
    std::uint64_t lcg = 42;
    for (unsigned i = 0; i < 8192; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t r = lcg >> 24;
        mem::DecodedAddr d;
        d.channel = r % g.channels;
        d.rank = (r >> 3) % g.ranksPerChannel;
        d.bank = (r >> 5) % g.banksPerRank;
        d.subarray = (r >> 8) % 2;
        d.row = ((r >> 9) % 4) * 8;
        d.col = ((r >> 11) % 4) * 8;
        const Orientation o =
            (r >> 13) % 4 == 0 ? Orientation::Column : Orientation::Row;
        requests.push_back({memory.map().encode(d, o), o});
    }
    const Tick slot = timing.cyc(timing.tBURST);
    std::uint64_t completions = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            mem::MemPacket pkt;
            pkt.addr = requests[i].addr;
            pkt.orient = requests[i].orient;
            pkt.isWrite = i % 3 == 0;
            pkt.priority = i % 4 == 1;
            pkt.onComplete = [&completions](Tick) { ++completions; };
            // Queues stay full: a refused request waits a burst slot
            // at a time until its channel frees one.
            while (!memory.tryIssue(pkt))
                eq.runUntil(eq.now() + slot);
        }
        eq.run();
        benchmark::DoNotOptimize(completions);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_ChannelControllerMixed);

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

void
BM_TableSetStandard(benchmark::State &state)
{
    // The synthetic tables every SQL run generates before its first
    // simulated access, at the benches' default 131072 tuples.
    for (auto _ : state) {
        const workload::TableSet set =
            workload::TableSet::standard(131072);
        benchmark::DoNotOptimize(set.a.get());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableSetStandard)->Unit(benchmark::kMillisecond);

void
BM_L3FillSynonymStream(benchmark::State &state)
{
    // The L3 fill path on the Table-1 hierarchy, driven without
    // cores: 32-line row bursts alternate with 32-line column bursts
    // that cross them in the same subarray, over twice the LLC's
    // lines. The stream runs once untimed to fill the LLC, so every
    // timed fill evicts a victim and probes its synonym partners.
    util::setLogLevel(util::LogLevel::Quiet);
    sim::EventQueue eq;
    mem::MemorySystem memory(mem::DeviceKind::RcNvm, eq);
    const cache::HierarchyConfig config;
    cache::Hierarchy hierarchy(config, eq, memory);
    const mem::Geometry &g = memory.map().geometry();
    const unsigned banks =
        g.channels * g.ranksPerChannel * g.banksPerRank;
    constexpr unsigned burst = 32;
    constexpr unsigned wordsPerLine = 8;
    const std::size_t lines =
        2 * std::size_t{config.l3.sizeBytes / config.l3.lineBytes};
    std::vector<cache::CacheAccess> stream;
    stream.reserve(lines);
    for (unsigned pair = 0; stream.size() < lines; ++pair) {
        // Pair p of a bank: row p's first 32 lines, then column p's.
        mem::DecodedAddr d;
        d.channel = pair % g.channels;
        d.rank = (pair / g.channels) % g.ranksPerChannel;
        d.bank = (pair / (g.channels * g.ranksPerChannel)) %
                 g.banksPerRank;
        const unsigned p = pair / banks;
        for (const Orientation o :
             {Orientation::Row, Orientation::Column}) {
            for (unsigned i = 0; i < burst; ++i) {
                d.row = o == Orientation::Row ? p : i * wordsPerLine;
                d.col = o == Orientation::Row ? i * wordsPerLine : p;
                cache::CacheAccess a;
                a.addr = memory.map().encode(d, o);
                a.orient = o;
                stream.push_back(a);
            }
        }
    }
    std::uint64_t completions = 0;
    const auto runLines = [&](std::size_t first, std::size_t count) {
        for (std::size_t i = first; i < first + count; ++i) {
            const cache::CacheAccess &a = stream[i % lines];
            const unsigned core =
                static_cast<unsigned>(i / burst % config.cores);
            // A refused access waits for the misses in flight.
            while (!hierarchy.access(core, a, [&completions](Tick) {
                ++completions;
            }))
                eq.run();
        }
        eq.run();
    };
    runLines(0, lines);
    constexpr std::size_t batch = 4096;
    std::size_t next = 0;
    for (auto _ : state) {
        runLines(next, batch);
        next = (next + batch) % lines;
        benchmark::DoNotOptimize(completions);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_L3FillSynonymStream);

} // namespace

BENCHMARK_MAIN();
