#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "bench_common.hh"
#include "core/presets.hh"
#include "olxp/serve/serve_scheduler.hh"
#include "trace/trace_binary.hh"
#include "trace/trace_demux.hh"
#include "trace/trace_reader.hh"

namespace rcnvm::perfbench {

namespace {

using Scope = SpanLog::Scope;

/** The drained-state audit every traced machine run must pass. */
void
checkDrained(cpu::Machine &m, Cell &cell)
{
    if (m.memory().queuedTotal() != 0)
        fail(cell, "memory queues not drained");
    if (m.hierarchy().mshrInUse() != 0)
        fail(cell, "MSHRs not drained");
}

/** Memory operations of a compiled query: what cpu.memOps counts. */
double
memoryOps(const workload::CompiledQuery &q)
{
    std::uint64_t n = 0;
    for (const auto &phase : q.phases) {
        for (const auto &plan : phase) {
            for (const cpu::MemOp &op : plan)
                n += op.isMemory() ? 1 : 0;
        }
    }
    return static_cast<double>(n);
}

/**
 * Tables placed on each of a workload's devices: the set-up both
 * table-driven workloads share. The placed databases point into the
 * tables, so they are dropped first.
 */
struct Placement {
    std::unique_ptr<workload::TableSet> tables;
    std::unique_ptr<workload::QueryWorkload> queries;
    std::vector<workload::PlacedDatabase> placed; //!< per device

    template <class MakeTables>
    void
    build(SpanLog *spans, const std::vector<mem::DeviceKind> &kinds,
          MakeTables make_tables)
    {
        placed.clear();
        queries.reset();
        {
            Scope s(spans, "workload.tables");
            tables = std::make_unique<workload::TableSet>(make_tables());
        }
        queries = std::make_unique<workload::QueryWorkload>(*tables);
        for (const auto kind : kinds) {
            Scope s(spans, "imdb.place");
            placed.push_back(
                queries->place(kind, mem::AddressMap(mem::geometryFor(kind))));
        }
    }
};

/**
 * sql_grid: Q1-Q13 on the four devices, 52 independent machines.
 * The timed body is the program's own grid entry,
 * bench::runSqlSuite, which builds its tables itself with the fixed
 * seed 42, so this workload's inputs do not depend on --seed. A
 * traced run replays the same calls runSqlSuite makes (tables, then
 * per cell place, compile, construct, run each phase), with a span
 * around each in its traced half, and must reproduce runSqlSuite's
 * digests exactly. Both halves of a traced run replay, so
 * trace_overhead compares the same code.
 */
class SqlGrid final : public Workload
{
  public:
    SqlGrid(bool smoke, bool replay)
        : tuples_(smoke ? 8192 : 131072), replay_(replay)
    {
    }

    std::size_t
    cellsPerRep() const override
    {
        return bench::sqlQueries().size() * bench::allDevices().size();
    }

    /** Tables and placements used by verify(); the timed body builds
     *  its own inside runSqlSuite. */
    void
    setup(SpanLog *spans) override
    {
        setup_.build(spans, bench::allDevices(), [this] {
            return workload::TableSet::standard(tuples_);
        });
    }

    Rep
    body(SpanLog *spans) override
    {
        return replay_ ? replayBody(spans) : gridBody();
    }

    /** cpu.memOps of every cell equals its compiled plan's memory
     *  operations. */
    void
    verify(std::vector<Rep> &reps) override
    {
        if (expectedOps_.empty()) {
            const unsigned cores =
                core::table1Machine(mem::DeviceKind::RcNvm)
                    .hierarchy.cores;
            for (const auto id : bench::sqlQueries()) {
                for (const auto &pd : setup_.placed)
                    expectedOps_.push_back(memoryOps(
                        setup_.queries->compile(id, pd, cores)));
            }
        }
        for (Rep &rep : reps) {
            for (std::size_t i = 0; i < rep.cells.size(); ++i) {
                if (rep.cells[i].memOps != expectedOps_[i])
                    fail(rep.cells[i], "cpu.memOps != compiled ops");
            }
        }
    }

  private:
    static std::string
    label(std::size_t qi, mem::DeviceKind kind)
    {
        return "Q" + std::to_string(qi + 1) + "/" + mem::toString(kind);
    }

    Rep
    gridBody()
    {
        const std::vector<bench::QueryRow> rows =
            bench::runSqlSuite(tuples_);
        Rep rep;
        for (std::size_t qi = 0; qi < rows.size(); ++qi) {
            for (std::size_t di = 0; di < rows[qi].byDevice.size(); ++di) {
                const core::ExperimentResult &r = rows[qi].byDevice[di];
                Cell cell;
                cell.label = label(qi, bench::allDevices()[di]);
                cell.digest = runDigest(cell.label, r.ticks, r.stats);
                cell.memOps = r.stats.get("cpu.memOps");
                rep.cells.push_back(std::move(cell));
            }
        }
        return rep;
    }

    Rep
    replayBody(SpanLog *spans)
    {
        Rep rep;
        std::optional<workload::TableSet> tables;
        {
            Scope s(spans, "workload.tables");
            tables.emplace(workload::TableSet::standard(tuples_));
        }
        const workload::QueryWorkload wl(*tables);
        const auto &ids = bench::sqlQueries();
        bool fillExpected = expectedOps_.empty();
        for (std::size_t qi = 0; qi < ids.size(); ++qi) {
            for (const auto kind : bench::allDevices()) {
                Cell cell;
                cell.label = label(qi, kind);
                const cpu::MachineConfig config = core::table1Machine(kind);
                const mem::AddressMap map(mem::geometryFor(kind));
                std::optional<workload::PlacedDatabase> pd;
                std::optional<workload::CompiledQuery> q;
                std::optional<cpu::Machine> m;
                {
                    Scope s(spans, "imdb.place");
                    pd.emplace(wl.place(kind, map));
                }
                {
                    Scope s(spans, "workload.compile");
                    q.emplace(wl.compile(ids[qi], *pd,
                                         config.hierarchy.cores));
                }
                {
                    Scope s(spans, "cpu.build");
                    m.emplace(config);
                }
                Tick ticks{0};
                cpu::RunResult last;
                for (const auto &phase : q->phases) {
                    {
                        Scope s(spans, "cpu.run");
                        last = m->run(phase);
                    }
                    ticks += last.ticks;
                    checkDrained(*m, cell);
                }
                cell.digest = runDigest(cell.label, ticks, last.stats);
                cell.memOps = last.stats.get("cpu.memOps");
                const double ops = memoryOps(*q);
                if (fillExpected)
                    expectedOps_.push_back(ops);
                if (cell.memOps != ops)
                    fail(cell, "cpu.memOps != compiled ops");
                rep.counters.addRun(last.stats, ticks);
                rep.counters.add(
                    "sim.events",
                    static_cast<double>(m->eventQueue().executed()));
                rep.counters.add("workload.compiled_ops",
                                 static_cast<double>(q->totalOps()));
                {
                    Scope s(spans, "teardown");
                    m.reset();
                    q.reset();
                    pd.reset();
                }
                rep.cells.push_back(std::move(cell));
            }
        }
        {
            Scope s(spans, "teardown");
            tables.reset();
        }
        return rep;
    }

    std::uint64_t tuples_;
    bool replay_; //!< replay runSqlSuite's calls instead of calling it
    Placement setup_;
    std::vector<double> expectedOps_; //!< memory ops per cell
};

/**
 * serve16_mix: the ext_olxp_serve tenant mix on serve16Machine with
 * the read-priority policy, on RC-NVM and DRAM. Per device it runs
 * the OLTP-only baseline (the reference the SLO target is derived
 * from), the unprotected mix, and the SLO-protected mix.
 */
class ServeMix final : public Workload
{
  public:
    ServeMix(std::uint64_t seed, bool smoke)
        : seed_(seed), tuples_(smoke ? 196608 : 393216),
          horizon_(smoke ? 16000000 : 1280000000)
    {
    }

    std::size_t cellsPerRep() const override { return 3 * kDevices.size(); }

    void
    setup(SpanLog *spans) override
    {
        setup_.build(spans, kDevices, [this] {
            return workload::TableSet::standard(tuples_, 1024, seed_);
        });
    }

    Rep
    body(SpanLog *spans) override
    {
        using namespace olxp::serve;
        TenantConfig oltp;
        oltp.name = "oltp";
        oltp.cls = TenantClass::OltpLatency;
        oltp.oltpInterArrival = Tick{100000};
        oltp.oltpUpdateFraction = 0.2;

        TenantConfig olap;
        olap.name = "olap";
        olap.cls = TenantClass::OlapThroughput;
        olap.streams = kStreams * 7 / 10;
        olap.segmentTuples = 128;
        olap.segmentParallelism = 12;

        TenantConfig maint;
        maint.name = "maint";
        maint.cls = TenantClass::Background;
        maint.streams = kStreams - olap.streams;
        maint.segmentTuples = 64;
        maint.segmentParallelism = 4;
        maint.tokensPerMTick = 1.0;
        maint.tokenBurst = 4.0;

        ServeConfig base;
        base.horizon = Tick{horizon_};
        base.measureFrom = Tick{horizon_ / 2};
        base.runQueueCapacity = 256;
        base.seed = seed_;

        Rep rep;
        for (std::size_t di = 0; di < kDevices.size(); ++di) {
            const std::string dev = mem::toString(kDevices[di]);
            ServeConfig cb = base;
            cb.tenants = {oltp};
            const ServeResult rb =
                serveOnce(di, cb, dev + "-baseline", spans, rep);

            ServeConfig cu = base;
            cu.tenants = {oltp, olap, maint};
            cu.slo = false;
            serveOnce(di, cu, dev + "-unprot", spans, rep);

            ServeConfig cs = cu;
            cs.slo = true;
            cs.sloTarget =
                Tick{static_cast<std::uint64_t>(rb.oltpP99 * 1.15)};
            cs.sloPeriod = Tick{1000000};
            serveOnce(di, cs, dev + "-slo", spans, rep);
        }
        return rep;
    }

  private:
    static constexpr unsigned kStreams = 1024;
    static inline const std::vector<mem::DeviceKind> kDevices = {
        mem::DeviceKind::RcNvm, mem::DeviceKind::Dram};

    olxp::serve::ServeResult
    serveOnce(std::size_t di, const olxp::serve::ServeConfig &cfg,
              const std::string &label, SpanLog *spans, Rep &rep)
    {
        cpu::MachineConfig config = core::serve16Machine(kDevices[di]);
        config.seed = seed_;
        config.schedPolicy = mem::SchedPolicyKind::ReadPriority;
        std::optional<cpu::Machine> m;
        std::optional<olxp::serve::ServeScheduler> sched;
        olxp::serve::ServeResult r;
        {
            Scope s(spans, "cpu.build");
            m.emplace(config);
        }
        {
            Scope s(spans, "olxp.setup");
            sched.emplace(*m, setup_.placed[di], cfg);
        }
        {
            Scope s(spans, "cpu.run");
            r = sched->run();
        }

        Cell cell;
        cell.label = label;
        cell.digest = fnv1a(std::to_string(r.oltpP99),
                            runDigest(label, r.run.ticks, r.run.stats));
        cell.memOps = r.run.stats.get("cpu.memOps");
        checkDrained(*m, cell);
        if (r.oltpGenerated != r.oltpCompleted + r.oltpRejected)
            fail(cell, "oltpGenerated != oltpCompleted + oltpRejected");
        const bool backfill = cfg.tenants.size() > 1;
        if (backfill && r.segmentsCompleted == 0)
            fail(cell, "no backfill segment completed");
        if (spans) {
            Counters &c = rep.counters;
            c.addRun(r.run.stats, r.run.ticks);
            c.add("sim.events",
                  static_cast<double>(m->eventQueue().executed()));
            c.add("olxp.oltp_completed",
                  static_cast<double>(r.oltpCompleted));
            c.add("olxp.oltp_rejected",
                  static_cast<double>(r.oltpRejected));
            c.max("olxp.oltp_p99_us", r.oltpP99 / 1.0e6);
            c.add("olxp.segments",
                  static_cast<double>(r.segmentsCompleted));
            c.add("olxp.backfill_denied",
                  static_cast<double>(r.backfillDenied));
            c.add("olxp.chunksScanned",
                  static_cast<double>(r.chunksScanned));
            c.add("olxp.chunksPruned",
                  static_cast<double>(r.chunksPruned));
            c.add("olxp.slo_breaches",
                  static_cast<double>(r.sloBreaches));
        }
        {
            Scope s(spans, "teardown");
            sched.reset();
            m.reset();
        }
        rep.cells.push_back(std::move(cell));
        return r;
    }

    std::uint64_t seed_;
    std::uint64_t tuples_;
    std::uint64_t horizon_; //!< simulated ticks (ps)
    Placement setup_;
};

/**
 * trace_stream: a seed-generated binary trace replayed once through
 * MmapTraceReader -> TraceDemux -> Machine::runSources on the
 * Table-1 RC-NVM machine. Each of 4 cores issues bursts of 32
 * consecutive lines along one row or down one column at a random
 * location of the whole device (far beyond the 8 MB LLC); one
 * access in three is a store.
 */
class TraceStream final : public Workload
{
  public:
    TraceStream(std::uint64_t seed, bool smoke, const std::string &workdir)
        : seed_(seed), bursts_(smoke ? 256 : 4096),
          path_(workdir + "/trace_stream_" + std::to_string(seed) +
                ".rtb")
    {
    }

    ~TraceStream() override { std::remove(path_.c_str()); }

    std::size_t cellsPerRep() const override { return 1; }

    void
    setup(SpanLog *spans) override
    {
        Scope s(spans, "trace.write");
        const mem::DeviceKind kind = mem::DeviceKind::RcNvm;
        const mem::Geometry g = mem::geometryFor(kind);
        const mem::AddressMap map(g);
        util::Random rng(seed_);
        trace::BinaryTraceWriter writer(path_, kCores);
        for (std::uint64_t b = 0; b < bursts_; ++b) {
            for (unsigned c = 0; c < kCores; ++c) {
                mem::DecodedAddr d;
                d.channel = static_cast<unsigned>(rng.nextBounded(g.channels));
                d.rank = static_cast<unsigned>(
                    rng.nextBounded(g.ranksPerChannel));
                d.bank = static_cast<unsigned>(rng.nextBounded(g.banksPerRank));
                d.subarray = static_cast<unsigned>(
                    rng.nextBounded(g.subarraysPerBank));
                // A burst spans 32 lines = 256 words, aligned so it
                // stays inside one row (or one column).
                const bool column = rng.nextBool(0.5);
                d.row = static_cast<unsigned>(
                    rng.nextBounded(g.rowsPerSubarray));
                d.col = static_cast<unsigned>(
                    rng.nextBounded(g.colsPerSubarray));
                if (column)
                    d.row -= d.row % kBurstWords;
                else
                    d.col -= d.col % kBurstWords;
                const Addr base = map.encode(
                    d, column ? Orientation::Column : Orientation::Row);
                for (unsigned i = 0; i < kBurstLines; ++i) {
                    const Addr a = base + Addr{64} * i;
                    const bool store = rng.nextBounded(3) == 0;
                    writer.append(c, column ? (store ? cpu::MemOp::cstore(a, 64)
                                                     : cpu::MemOp::cload(a))
                                            : (store ? cpu::MemOp::store(a, 64)
                                                     : cpu::MemOp::load(a)));
                }
            }
        }
        writer.finalize();
        records_ = writer.recordCount();
    }

    Rep
    body(SpanLog *spans) override
    {
        std::optional<trace::MmapTraceReader> reader;
        std::optional<trace::TraceDemux> demux;
        std::optional<cpu::Machine> m;
        cpu::RunResult r;
        {
            Scope s(spans, "trace.open");
            reader.emplace(path_);
            demux.emplace(*reader);
        }
        cpu::MachineConfig config =
            core::table1Machine(mem::DeviceKind::RcNvm);
        config.seed = seed_;
        {
            Scope s(spans, "cpu.build");
            m.emplace(config);
        }
        {
            Scope s(spans, "cpu.run");
            r = m->runSources(demux->sources());
        }

        Rep rep;
        Cell cell;
        cell.label = "trace/RC-NVM";
        cell.digest = runDigest(cell.label, r.ticks, r.stats);
        cell.memOps = r.stats.get("cpu.memOps");
        checkDrained(*m, cell);
        if (cell.memOps != static_cast<double>(records_))
            fail(cell, "cpu.memOps != trace records");
        if (spans) {
            Counters &c = rep.counters;
            c.addRun(r.stats, r.ticks);
            c.add("sim.events",
                  static_cast<double>(m->eventQueue().executed()));
            c.max("trace.max_mapped_bytes",
                  static_cast<double>(reader->maxMappedBytes()));
            c.max("trace.max_queued",
                  static_cast<double>(demux->maxQueued()));
        }
        {
            Scope s(spans, "teardown");
            m.reset();
            demux.reset();
            reader.reset();
        }
        rep.cells.push_back(std::move(cell));
        return rep;
    }

    /**
     * The trace and controller layers alone: the reader drained by
     * itself, then every access issued straight into a bare RC-NVM
     * MemorySystem with canAccept backpressure (no cores, no caches).
     */
    void
    isolated(Counters &out) override
    {
        std::vector<double> perRecord;
        for (int i = 0; i < 5; ++i) {
            trace::MmapTraceReader reader(path_);
            trace::TraceRecord rec;
            std::uint64_t n = 0;
            const double t0 = hostSeconds();
            while (reader.next(rec))
                ++n;
            const double dt = hostSeconds() - t0;
            if (n != records_)
                throw std::runtime_error("reader drained a wrong count");
            perRecord.push_back(dt * 1.0e9 / static_cast<double>(n));
        }
        std::sort(perRecord.begin(), perRecord.end());
        out.add("trace.read_ns_per_record", perRecord[perRecord.size() / 2]);

        sim::EventQueue eq;
        mem::MemorySystem memory(mem::DeviceKind::RcNvm, eq);
        trace::MmapTraceReader reader(path_);
        trace::TraceRecord rec;
        std::uint64_t issued = 0;
        std::uint64_t done = 0;
        const double t0 = hostSeconds();
        while (reader.next(rec)) {
            const cpu::MemOp op = trace::toMemOp(rec, issued);
            const Orientation orient = op.orientation();
            while (!memory.canAccept(op.addr, orient)) {
                if (eq.pending() == 0)
                    throw std::runtime_error("controller stuck full");
                eq.runUntil(eq.nextEventTick());
            }
            mem::MemPacket pkt;
            pkt.addr = op.addr;
            pkt.orient = orient;
            pkt.isWrite = op.isWrite();
            pkt.onComplete = [&done](Tick) { ++done; };
            memory.issue(std::move(pkt));
            ++issued;
        }
        eq.run();
        const double dt = hostSeconds() - t0;
        if (done != issued || memory.queuedTotal() != 0)
            throw std::runtime_error("direct replay did not drain");
        out.add("mem.direct_ns_per_request",
                dt * 1.0e9 / static_cast<double>(issued));
    }

  private:
    static constexpr unsigned kCores = 4;
    static constexpr unsigned kBurstLines = 32;
    static constexpr unsigned kBurstWords = kBurstLines * 8;

    std::uint64_t seed_;
    std::uint64_t bursts_; //!< per core
    std::string path_;
    std::uint64_t records_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke,
             bool trace, const std::string &workdir)
{
    if (name == "sql_grid")
        return std::make_unique<SqlGrid>(smoke, trace);
    if (name == "serve16_mix")
        return std::make_unique<ServeMix>(seed, smoke);
    if (name == "trace_stream")
        return std::make_unique<TraceStream>(seed, smoke, workdir);
    return nullptr;
}

} // namespace rcnvm::perfbench
