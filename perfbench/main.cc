/**
 * @file
 * perfbench: runs one benchmark workload in this process and
 * prints its metrics as the last line of standard output.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s>
 *             --trace <0|1> [--smoke] [--workdir <dir>]
 *
 * Set-up is repeated for kSetupSeconds, at least kMinSetups times
 * (setup_s is the median). The body is then repeated until --seconds
 * have passed (at least once); wall_s is the median repetition. Every
 * time is calibrated against samples of a reference kernel taken
 * while it runs (see CalibratedClock), so host drift largely cancels.
 * With --trace 1 half of the time runs untraced repetitions and half
 * traced ones, whose spans give the per-layer metrics;
 * trace_overhead compares the two.
 *
 * Every repetition's simulated output is hashed per run (ticks plus
 * the stats JSON). A run fails when it throws, fails a check, or its
 * digest differs from the first repetition's; "sim_digest" on
 * standard output is the hash of one repetition's run digests.
 */

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cpu/machine.hh"
#include "harness.hh"
#include "util/logging.hh"
#include "workloads.hh"

using namespace rcnvm;
using namespace rcnvm::perfbench;

namespace {

/** Set-up repeats for this long and at least this often; a set-up
 *  takes from 30 ms (trace_stream) to 250 ms (serve16_mix), and the
 *  median of many is steadier than a single one. Set-ups are
 *  calibrated in blocks of at least kSetupBlockSeconds. */
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kMinSetups = 5;
constexpr double kSetupBlockSeconds = 0.25;

struct Metric {
    std::string name;
    std::string unit;
    double value;
};

/** The @p q-quantile of @p v, rounded down to a sample. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(static_cast<double>(v.size() - 1) * q)];
}

/** The median of @p v; the mean of the middle two for an even count. */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] [--workdir <dir>]\n";
    std::exit(2);
}

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool smoke = false;
    std::string workdir = ".";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        std::uint64_t n = 0;
        const bool isUint = util::parseUint64(v.c_str(), n) == util::ParseUint::Ok;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed" && isUint) {
            a.seed = n;
            haveSeed = true;
        } else if (flag == "--seconds" && isUint && n > 0) {
            a.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (flag == "--trace" && isUint && n <= 1) {
            a.trace = n == 1;
            haveTrace = true;
        } else if (flag == "--workdir") {
            a.workdir = v;
        } else {
            usage("bad argument " + flag + " " + v);
        }
    }
    if (a.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    return a;
}

/** Repetition bookkeeping shared by the untraced and traced loops. */
struct Runner {
    Workload &w;
    std::vector<Rep> reps;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; //!< cells of repetitions that threw

    /** Repeat the body for @p budget seconds (at least once) and
     *  return each repetition's calibrated wall time. */
    std::vector<double>
    loop(double budget, SpanLog *spans, CalibratedClock &clock)
    {
        std::vector<double> walls;
        const double start = hostSeconds();
        do {
            clock.measure(
                [&](std::vector<double> &raw) {
                    const double t0 = hostSeconds();
                    try {
                        SpanLog::Scope root(spans, "body");
                        reps.push_back(w.body(spans));
                    } catch (const std::exception &e) {
                        std::cerr << "repetition threw: " << e.what()
                                  << "\n";
                        attempted += w.cellsPerRep();
                        failed += w.cellsPerRep();
                        return;
                    }
                    raw.push_back(hostSeconds() - t0);
                    // Hand freed heap back to the kernel so the next
                    // repetition's peak RSS does not ride on
                    // fragmentation.
                    malloc_trim(0);
                },
                walls);
        } while (hostSeconds() - start < budget);
        return walls;
    }
};

/** Per-layer metrics of the traced run. */
std::vector<Metric>
layerMetrics(const SpanLog &setupLog, const SpanLog &bodyLog,
             std::size_t tracedReps, const Rep &traced,
             const Counters &isolated, double untracedWall,
             double tracedWall)
{
    const auto setupSelf = setupLog.selfByName();
    const auto bodySelf = bodyLog.selfByName();
    const double n = static_cast<double>(tracedReps);
    // Self seconds of a span per body repetition; a layer only the
    // set-up calls (tables for serve, the trace writer) reports its
    // time in the traced set-up instead.
    const auto secs = [&](const std::string &span) {
        if (auto it = bodySelf.find(span); it != bodySelf.end())
            return it->second / n;
        const auto it = setupSelf.find(span);
        return it == setupSelf.end() ? 0.0 : it->second;
    };
    double bodyTotal = 0;
    for (const SpanLog::Span &s : bodyLog.spans()) {
        if (s.parent < 0)
            bodyTotal += s.duration();
    }
    const Counters &c = traced.counters;
    const double memOps = c.get("cpu.memOps");
    const double events = c.get("sim.events");
    const double runS = secs("cpu.run");
    const double compileS = secs("workload.compile");
    const double compiledOps = c.get("workload.compiled_ops");
    const double hits = c.get("cache.l1Hits") + c.get("cache.l2Hits") +
                        c.get("cache.l3Hits");
    const double requests = c.get("mem.requests");
    const double chunks =
        c.get("olxp.chunksScanned") + c.get("olxp.chunksPruned");

    return {
        {"core.cells", "count", static_cast<double>(traced.cells.size())},
        {"workload.tables_s", "s", secs("workload.tables")},
        {"workload.compile_s", "s", compileS},
        {"workload.compiled_ops", "count", compiledOps},
        {"workload.compile_ns_per_op", "ns",
         ratio(compileS * 1e9, compiledOps)},
        {"imdb.place_s", "s", secs("imdb.place")},
        {"cpu.build_s", "s", secs("cpu.build")},
        {"cpu.run_s", "s", runS},
        {"cpu.run_ns_per_memop", "ns", ratio(runS * 1e9, memOps)},
        {"cpu.memOps", "count", memOps},
        {"cpu.retries", "count", c.get("cpu.retries")},
        {"cpu.stallTicks", "ticks", c.get("cpu.stallTicks")},
        {"sim.events", "count", events},
        {"sim.ns_per_event", "ns", ratio(runS * 1e9, events)},
        {"sim.events_per_memop", "ratio", ratio(events, memOps)},
        {"cache.accesses", "count", c.get("cache.accesses")},
        {"cache.hit_ratio", "ratio", ratio(hits, c.get("cache.accesses"))},
        {"cache.llcMisses", "count", c.get("cache.llcMisses")},
        {"cache.cohInvalidations", "count",
         c.get("cache.cohInvalidations")},
        {"cache.writebacks", "count", c.get("cache.writebacks")},
        {"cache.mshrCoalesced", "count", c.get("cache.mshrCoalesced")},
        {"cache.retries", "count", c.get("cache.retries")},
        {"cache.synonymProbes", "count", c.get("cache.synonymProbes")},
        {"mem.requests", "count", requests},
        {"mem.writes", "count", c.get("mem.writes")},
        {"mem.bufferMissRate", "ratio",
         requests > 0 ? 1.0 - c.get("mem.bufferHits") / requests : 0.0},
        {"mem.orientationSwitches", "count",
         c.get("mem.orientationSwitches")},
        {"mem.rejectedIssues", "count", c.get("mem.rejectedIssues")},
        {"mem.avgQueueWaitTicks", "ticks",
         ratio(c.get("mem.queueWaitTicksTotal"), requests)},
        {"mem.busUtilization", "ratio",
         ratio(c.get("mem.busBusyWeighted"), c.get("sim.ticks"))},
        {"mem.direct_ns_per_request", "ns",
         isolated.get("mem.direct_ns_per_request")},
        {"olxp.setup_s", "s", secs("olxp.setup")},
        {"olxp.oltp_completed", "count", c.get("olxp.oltp_completed")},
        {"olxp.oltp_rejected", "count", c.get("olxp.oltp_rejected")},
        {"olxp.oltp_p99_us", "us", c.get("olxp.oltp_p99_us")},
        {"olxp.segments", "count", c.get("olxp.segments")},
        {"olxp.backfill_denied", "count", c.get("olxp.backfill_denied")},
        {"olxp.prune_ratio", "ratio",
         ratio(c.get("olxp.chunksPruned"), chunks)},
        {"olxp.slo_breaches", "count", c.get("olxp.slo_breaches")},
        {"trace.write_s", "s", secs("trace.write")},
        {"trace.open_s", "s", secs("trace.open")},
        {"trace.read_ns_per_record", "ns",
         isolated.get("trace.read_ns_per_record")},
        {"trace.max_mapped_bytes", "bytes",
         c.get("trace.max_mapped_bytes")},
        {"trace.max_queued", "count", c.get("trace.max_queued")},
        {"teardown_s", "s", secs("teardown")},
        {"span_coverage", "ratio",
         ratio(bodyTotal - secs("body") * n, bodyTotal)},
        {"trace_overhead", "ratio", tracedWall / untracedWall - 1.0},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    // Knobs that change what the simulator outputs or writes; the
    // worker count (RCNVM_THREADS) is left to the program's default.
    for (const char *knob : {"RCNVM_STATS_DIR", "RCNVM_CHROME_TRACE",
                             "RCNVM_EPOCH_TICKS", "RCNVM_TUPLES",
                             "RCNVM_SEED"})
        unsetenv(knob);

    const Args args = parseArgs(argc, argv);
    util::setLogLevel(util::LogLevel::Quiet);
    std::unique_ptr<Workload> w =
        makeWorkload(args.workload, args.seed, args.smoke, args.trace,
                     args.workdir);
    if (!w)
        usage("unknown workload " + args.workload);

    std::cout << "workload " << args.workload << " seed " << args.seed
              << (args.smoke ? " (smoke scale)" : "") << "\n"
              << "nproc " << std::thread::hardware_concurrency()
              << " workers " << cpu::MachineConfig{}.threads << "\n";

    CalibratedClock clock;
    std::vector<double> setupTimes;
    const double setupStart = hostSeconds();
    while (setupTimes.size() < kMinSetups ||
           hostSeconds() - setupStart < kSetupSeconds) {
        clock.measure(
            [&](std::vector<double> &raw) {
                const double b0 = hostSeconds();
                do {
                    // Every set-up starts with the freed heap handed
                    // back, as in a fresh process: whether glibc kept
                    // the last set-up's pages made set-ups bimodal.
                    malloc_trim(0);
                    const double t0 = hostSeconds();
                    w->setup(nullptr);
                    raw.push_back(hostSeconds() - t0);
                } while (hostSeconds() - b0 < kSetupBlockSeconds);
            },
            setupTimes);
    }
    // The traced run records one more set-up; its result is kept.
    SpanLog setupLog;
    if (args.trace)
        w->setup(&setupLog);

    Runner runner{*w, {}, 0, 0};
    const std::vector<double> walls =
        runner.loop(args.trace ? args.seconds / 2 : args.seconds, nullptr,
                    clock);
    SpanLog bodyLog;
    std::vector<double> tracedWalls;
    if (args.trace)
        tracedWalls = runner.loop(args.seconds / 2, &bodyLog, clock);

    Counters isolated;
    bool checksOk = true;
    try {
        w->verify(runner.reps);
        if (args.trace)
            w->isolated(isolated);
    } catch (const std::exception &e) {
        std::cerr << "check threw: " << e.what() << "\n";
        checksOk = false;
    }

    // Digest agreement: every repetition against the first.
    std::uint64_t attempted = runner.attempted;
    std::uint64_t failed = runner.failed;
    std::uint64_t simDigest = 14695981039346656037ull;
    for (Rep &rep : runner.reps) {
        const Rep &ref = runner.reps.front();
        for (std::size_t i = 0; i < rep.cells.size(); ++i) {
            Cell &cell = rep.cells[i];
            if (i >= ref.cells.size() || cell.digest != ref.cells[i].digest)
                fail(cell, "sim digest differs from first repetition");
            if (&rep == &ref)
                simDigest = fnv1a(std::to_string(cell.digest), simDigest);
            ++attempted;
            if (!cell.failure.empty()) {
                ++failed;
                std::cerr << "run " << cell.label
                          << " failed: " << cell.failure << "\n";
            }
        }
    }
    if (!checksOk)
        ++failed;
    const bool correct =
        failed == 0 && !walls.empty() && (!args.trace || !tracedWalls.empty());
    std::printf("sim_digest %016llx\n",
                static_cast<unsigned long long>(simDigest));

    std::vector<Metric> metrics;
    if (correct && !args.trace) {
        const double wall = median(walls);
        double memOps = 0;
        for (const Cell &cell : runner.reps.front().cells)
            memOps += cell.memOps;
        metrics = {
            {"wall_s", "s", wall},
            {"sim_memops_per_s", "1/s", memOps / wall},
            {"setup_s", "s", median(setupTimes)},
            {"peak_rss_mb", "MB", peakRssMb()},
        };
    } else if (correct) {
        metrics = layerMetrics(setupLog, bodyLog, tracedWalls.size(),
                               runner.reps.back(), isolated,
                               median(walls),
                               median(tracedWalls));
    }
    for (const auto &[kind, v] :
         {std::pair{"set-up", setupTimes}, std::pair{"untraced", walls},
          std::pair{"traced", tracedWalls}}) {
        if (!v.empty())
            std::printf("%s repetitions %zu: calibrated seconds min %.4f "
                        "p25 %.4f median %.4f max %.4f\n",
                        kind, v.size(), quantile(v, 0), quantile(v, 0.25),
                        quantile(v, 0.5), quantile(v, 1));
    }
    const std::vector<double> &f = clock.factors();
    std::printf("calibration factors %zu: min %.4f median %.4f max %.4f\n",
                f.size(), quantile(f, 0), quantile(f, 0.5), quantile(f, 1));

    std::string json = "{\"correct\": " +
                       std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", v);
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + num + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return correct ? 0 : 1;
}
