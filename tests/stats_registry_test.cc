/**
 * @file
 * Unit tests for the observability subsystem: the typed statistics
 * registry, epoch sampling, the exact bytes of the JSON and
 * chrome-trace writers, and the CSV writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "sim/epoch_sampler.hh"
#include "sim/event_queue.hh"
#include "util/chrome_trace.hh"
#include "util/stat_registry.hh"
#include "util/stats.hh"
#include "util/stats_io.hh"

namespace rcnvm::util {
namespace {

TEST(StatRegistry, MultiSourceCountersSum)
{
    Counter a, b;
    a.inc(3);
    b.inc(4);
    StatRegistry r;
    r.addCounter("mem.reads", a); // e.g. channel 0
    r.addCounter("mem.reads", b); // e.g. channel 1
    EXPECT_DOUBLE_EQ(r.counter("mem.reads"), 7.0);

    const StatsMap snap = r.snapshot();
    EXPECT_DOUBLE_EQ(snap.at("mem.reads"), 7.0);
    EXPECT_EQ(snap.kindOf("mem.reads"), StatKind::Additive);
}

TEST(StatRegistry, SampledSourcesMomentMerge)
{
    Sampled s0, s1;
    s0.sample(1.0);
    s0.sample(3.0);
    s1.sample(5.0);
    StatRegistry r;
    r.addSampled("wait", s0);
    r.addSampled("wait", s1);
    const Sampled merged = r.sampled("wait");
    EXPECT_EQ(merged.count(), 3u);
    EXPECT_DOUBLE_EQ(merged.mean(), 3.0);
    EXPECT_DOUBLE_EQ(merged.max(), 5.0);

    const StatsMap snap = r.snapshot();
    EXPECT_DOUBLE_EQ(snap.at("wait.count"), 3.0);
    EXPECT_DOUBLE_EQ(snap.at("wait.mean"), 3.0);
    EXPECT_DOUBLE_EQ(snap.at("wait.min"), 1.0);
    EXPECT_DOUBLE_EQ(snap.at("wait.max"), 5.0);
    EXPECT_EQ(snap.kindOf("wait.mean"), StatKind::Scalar);
}

TEST(StatRegistry, HistogramSourcesBucketMerge)
{
    Histogram h0, h1;
    h0.sample(1);
    h1.sample(1);
    h1.sample(8);
    StatRegistry r;
    r.addHistogram("hist", h0);
    r.addHistogram("hist", h1);
    const Histogram merged = r.histogram("hist");
    EXPECT_EQ(merged.count(), 3u);
    EXPECT_EQ(merged.bucket(1), 2u);

    const StatsMap snap = r.snapshot();
    EXPECT_DOUBLE_EQ(snap.at("hist.samples"), 3.0);
    EXPECT_DOUBLE_EQ(snap.at("hist.b1"), 2.0);
    EXPECT_DOUBLE_EQ(snap.at("hist.b4"), 1.0);
    EXPECT_EQ(snap.kindOf("hist.samples"), StatKind::Additive);

    // A k = 7 name merges in its own layout and flattens by its own
    // bucket index: 300 is bucket 278 ([300, 301]), 8 is bucket 8.
    Histogram f0(7), f1(7);
    f0.sample(300);
    f1.sample(300);
    f1.sample(8);
    r.addHistogram("fine", f0);
    r.addHistogram("fine", f1);
    const Histogram fine = r.histogram("fine");
    EXPECT_EQ(fine.subBucketBits(), 7u);
    EXPECT_DOUBLE_EQ(fine.percentile(1.0), 301.0);
    const StatsMap fineSnap = r.snapshot();
    EXPECT_DOUBLE_EQ(fineSnap.at("fine.samples"), 3.0);
    EXPECT_DOUBLE_EQ(fineSnap.at("fine.b278"), 2.0);
    EXPECT_DOUBLE_EQ(fineSnap.at("fine.b8"), 1.0);
}

TEST(StatRegistry, FormulasEvaluateOverAggregatedInputs)
{
    Counter hits, total0, total1;
    hits.inc(3);
    total0.inc(5);
    total1.inc(5);
    StatRegistry r;
    r.addCounter("hits", hits);
    r.addCounter("total", total0);
    r.addCounter("total", total1);
    r.addFormula("hitRate", [](const StatRegistry &g) {
        return g.counter("hits") / g.counter("total");
    });
    EXPECT_DOUBLE_EQ(r.value("hitRate"), 0.3);

    const StatsMap snap = r.snapshot();
    EXPECT_DOUBLE_EQ(snap.at("hitRate"), 0.3);
    // The derived value must be Scalar so a reader combining runs
    // never sums it.
    EXPECT_EQ(snap.kindOf("hitRate"), StatKind::Scalar);
}

TEST(StatRegistry, CounterFnAndValueSourcesAreAdditive)
{
    double energy0 = 1.5, energy1 = 2.5;
    StatRegistry r;
    r.addValue("energy", energy0);
    r.addValue("energy", energy1);
    r.addCounterFn("derivedCount", [] { return 4.0; });
    EXPECT_DOUBLE_EQ(r.counter("energy"), 4.0);
    energy1 = 3.5; // live pointer: reads see the current value
    EXPECT_DOUBLE_EQ(r.counter("energy"), 5.0);
    const StatsMap snap = r.snapshot();
    EXPECT_EQ(snap.kindOf("energy"), StatKind::Additive);
    EXPECT_EQ(snap.kindOf("derivedCount"), StatKind::Additive);
    EXPECT_DOUBLE_EQ(snap.at("derivedCount"), 4.0);
}

TEST(StatRegistry, GaugeIsScalar)
{
    StatRegistry r;
    r.addGauge("occupancy", [] { return 0.5; });
    const StatsMap snap = r.snapshot();
    EXPECT_DOUBLE_EQ(snap.at("occupancy"), 0.5);
    EXPECT_EQ(snap.kindOf("occupancy"), StatKind::Scalar);
}

TEST(EpochSamplerTest, SamplesRowsAndTerminates)
{
    sim::EventQueue eq;
    int work = 0;
    // Background work spanning 10 epochs of 100 ticks.
    for (Tick t{50}; t <= Tick{1000}; t += Tick{50})
        eq.schedule(t, [&work] { ++work; });

    sim::EpochSampler sampler(eq);
    double gauge = 0;
    sampler.addGauge("g", [&gauge] { return gauge++; });
    sampler.start(Tick{100});
    EXPECT_TRUE(sampler.running());

    eq.run(); // must terminate: the sampler may not self-sustain

    EXPECT_FALSE(sampler.running());
    EXPECT_EQ(work, 20);
    const sim::EpochSeries &s = sampler.series();
    ASSERT_EQ(s.names.size(), 1u);
    EXPECT_EQ(s.names[0], "g");
    // One sample per epoch while work was pending; at least the
    // 100..1000 epochs are covered.
    ASSERT_GE(s.ticks.size(), 10u);
    EXPECT_EQ(s.ticks[0], Tick{100});
    EXPECT_EQ(s.ticks[1], Tick{200});
    ASSERT_EQ(s.rows.size(), s.ticks.size());
    EXPECT_DOUBLE_EQ(s.rows[0][0], 0.0); // gauge read in tick order
    EXPECT_DOUBLE_EQ(s.rows[1][0], 1.0);
}

TEST(EpochSamplerTest, SeriesWritersProduceParsableOutput)
{
    sim::EpochSeries s;
    s.names = {"a", "b"};
    s.ticks = {Tick{100}, Tick{200}};
    s.rows = {{1.0, 2.0}, {3.0, 4.0}};

    std::ostringstream csv;
    s.writeCsv(csv);
    EXPECT_NE(csv.str().find("tick,a,b"), std::string::npos);
    EXPECT_NE(csv.str().find("200,3,4"), std::string::npos);
}

TEST(StatsIo, JsonWriterGolden)
{
    // Additive and scalar entries in name order, 17 significant
    // digits, a non-finite value as null, and an escaped label.
    StatsMap m;
    m.add("mem.reads", 12345.0);
    m.add("mem.writes", 67.0);
    m.set("mem.busUtilization", 0.4375);
    m.set("mem.avgQueueWaitTicks", 1234.5678901234567);
    m.set("mem.bufferMissRate",
          std::numeric_limits<double>::quiet_NaN());

    std::ostringstream os;
    writeStatsJson(os, m, "test \"run\"\n2", Tick{9876543210});
    EXPECT_EQ(os.str(),
              R"({"schema":"rcnvm-stats-v1","label":"test \"run\"\n2",)"
              R"("ticks":9876543210,"stats":{)"
              R"("mem.avgQueueWaitTicks":1234.5678901234567,)"
              R"("mem.bufferMissRate":null,"mem.busUtilization":0.4375,)"
              R"("mem.reads":12345,"mem.writes":67},"kinds":{)"
              R"("mem.avgQueueWaitTicks":"scalar",)"
              R"("mem.bufferMissRate":"scalar",)"
              R"("mem.busUtilization":"scalar",)"
              R"("mem.reads":"additive","mem.writes":"additive"}})");
}

TEST(StatsIo, CsvWriterEmitsLabeledRows)
{
    StatsMap m;
    m.add("x", 2.0);
    m.set("y", 0.5);
    std::ostringstream os;
    writeStatsCsv(os, m, "lab");
    EXPECT_NE(os.str().find("\"lab\",x,2"), std::string::npos);
    EXPECT_NE(os.str().find("\"lab\",y,0.5"), std::string::npos);
}

#if RCNVM_PACKET_TRACE
TEST(ChromeTrace, WritesTraceFileGolden)
{
    const std::string path =
        testing::TempDir() + "chrome_trace_test.json";
    ChromeTracer::enable(path);
    ASSERT_NE(ChromeTracer::active(), nullptr);
    ChromeTracer::active()->complete("service",
                                     ChromeTracer::kPidMemBase, 3,
                                     Tick{2'000'000}, Tick{500'000}, 0x1000);
    ChromeTracer::active()->instant(
        "mshr.alloc", ChromeTracer::kPidCache, 1, Tick{1'000'000}, 0x1000);
    EXPECT_EQ(ChromeTracer::active()->eventCount(), 2u);
    ChromeTracer::disable();
    EXPECT_EQ(ChromeTracer::active(), nullptr);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    // Metadata (process_name) events for the cpu, the cache and the
    // one channel present, then the two recorded events. Ticks are
    // picoseconds; chrome timestamps are microseconds.
    EXPECT_EQ(text.str(),
              R"({"traceEvents":[)"
              R"({"ph":"M","name":"process_name","pid":1,"tid":0,)"
              R"("args":{"name":"cpu"}},)"
              R"({"ph":"M","name":"process_name","pid":2,"tid":0,)"
              R"("args":{"name":"cache"}},)"
              R"({"ph":"M","name":"process_name","pid":16,"tid":0,)"
              R"("args":{"name":"mem.ch0"}},)"
              R"({"ph":"X","name":"service","cat":"pkt","pid":16,)"
              R"("tid":3,"ts":2.000000,"dur":0.500000,)"
              R"("args":{"addr":4096}},)"
              R"({"ph":"i","name":"mshr.alloc","cat":"pkt","pid":2,)"
              R"("tid":1,"ts":1.000000,"s":"t","args":{"addr":4096}}]})");

    std::remove(path.c_str());
}
#endif // RCNVM_PACKET_TRACE

} // namespace
} // namespace rcnvm::util
