/**
 * @file
 * Tests for the binary trace frontend: record/plan round trips,
 * text<->binary property equivalence, malformed-file rejection, the
 * mmap window residency bound, per-core demultiplexing, and the
 * headline guarantee that streaming replay produces byte-identical
 * statistics to fixed-plan replay. Also the
 * regression death tests for the strict environment parsing at the
 * RCNVM_EPOCH_TICKS / RCNVM_TUPLES call sites.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "core/presets.hh"
#include "cpu/machine.hh"
#include "mem/memory_system.hh"
#include "trace/trace_binary.hh"
#include "trace/trace_demux.hh"
#include "trace/trace_io.hh"
#include "trace/trace_reader.hh"
#include "util/stats_io.hh"
#include "workload/queries.hh"

namespace rcnvm::trace {
namespace {

using cpu::AccessPlan;
using cpu::MemOp;
using cpu::OpKind;

bool
sameOp(const MemOp &a, const MemOp &b)
{
    return a.kind == b.kind && a.addr == b.addr &&
           a.bytes == b.bytes && a.computeCycles == b.computeCycles &&
           a.orientation() == b.orientation();
}

void
expectSamePlans(const std::vector<AccessPlan> &got,
                const std::vector<AccessPlan> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(got[c].size(), want[c].size()) << "core " << c;
        for (std::size_t i = 0; i < want[c].size(); ++i) {
            EXPECT_TRUE(sameOp(got[c][i], want[c][i]))
                << "core " << c << " op " << i;
        }
    }
}

/** Fresh path under the gtest temp dir (removed on rewrite). */
std::string
tempTrace(const char *name)
{
    return ::testing::TempDir() + "rcnvm_" + name + ".rtb";
}

std::vector<AccessPlan>
everyKindPlans()
{
    std::vector<AccessPlan> plans(3);
    plans[0] = {
        MemOp::load(0x1000),
        MemOp::store(0x2008, 8),
        MemOp::cload(0x3000),
        MemOp::cstore(0x4010, 8),
        MemOp::cprefetch(0x5000, Orientation::Column),
        MemOp::cprefetch(0x5040, Orientation::Row),
        MemOp::gload(0x6000),
        MemOp::compute(1234),
        MemOp::pin(0x7000, 2048, Orientation::Column),
        MemOp::unpin(0x7000, 2048, Orientation::Column),
        MemOp::fence(),
    };
    plans[1] = {}; // idle core in the middle stays represented
    plans[2] = {MemOp::load(0xdeadbec0),
                MemOp::pin(0x100, 64, Orientation::Row),
                MemOp::unpin(0x100, 64, Orientation::Row)};
    return plans;
}

TEST(TraceBinary, RoundTripsEveryOpKind)
{
    const std::string path = tempTrace("roundtrip");
    const auto plans = everyKindPlans();
    writeBinaryTrace(path, plans);
    expectSamePlans(readBinaryTrace(path), plans);
}

TEST(TraceBinary, HeaderCountsMatchPlans)
{
    const std::string path = tempTrace("counts");
    writeBinaryTrace(path, everyKindPlans());

    MmapTraceReader reader(path);
    EXPECT_EQ(reader.header().version, kTraceVersion);
    EXPECT_EQ(reader.header().coreCount, 3u);
    EXPECT_EQ(reader.header().recordCount, 14u);
    ASSERT_EQ(reader.coreRecordCounts().size(), 3u);
    EXPECT_EQ(reader.coreRecordCounts()[0], 11u);
    EXPECT_EQ(reader.coreRecordCounts()[1], 0u);
    EXPECT_EQ(reader.coreRecordCounts()[2], 3u);
}

TEST(TraceBinary, TextAndBinaryFormatsAgreeOnRandomPlans)
{
    // Property test: a random plan set must survive
    // text -> plans -> binary -> plans unchanged. Seeded, so a
    // failure reproduces.
    std::mt19937_64 rng(20260809);
    for (int iter = 0; iter < 20; ++iter) {
        std::vector<AccessPlan> plans(1 + rng() % 4);
        for (auto &plan : plans) {
            const std::size_t ops = rng() % 40;
            for (std::size_t i = 0; i < ops; ++i) {
                const Addr a = (rng() % 0x100000) * 8;
                const auto orient = (rng() % 2) != 0
                                        ? Orientation::Column
                                        : Orientation::Row;
                switch (rng() % 10) {
                  case 0: plan.push_back(MemOp::load(a)); break;
                  case 1:
                    plan.push_back(
                        MemOp::store(a, 8 << (rng() % 4)));
                    break;
                  case 2: plan.push_back(MemOp::cload(a)); break;
                  case 3:
                    plan.push_back(
                        MemOp::cstore(a, 8 << (rng() % 4)));
                    break;
                  case 4:
                    plan.push_back(MemOp::cprefetch(a, orient));
                    break;
                  case 5: plan.push_back(MemOp::gload(a)); break;
                  case 6:
                    plan.push_back(
                        MemOp::compute(1 + rng() % 5000));
                    break;
                  case 7:
                    plan.push_back(MemOp::pin(a, 1024, orient));
                    break;
                  case 8:
                    plan.push_back(MemOp::unpin(a, 1024, orient));
                    break;
                  default: plan.push_back(MemOp::fence()); break;
                }
            }
        }

        const auto viaText = fromString(toString(plans));
        const std::string path = tempTrace("property");
        writeBinaryTrace(path, viaText);
        expectSamePlans(readBinaryTrace(path), viaText);
    }
}

// --- Malformed-file rejection ------------------------------------

/** Write @p bytes verbatim as a pretend trace file. */
std::string
rawFile(const char *name, const std::string &bytes)
{
    const std::string path = tempTrace(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    return path;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(TraceBinaryDeathTest, TruncatedHeaderIsFatal)
{
    const std::string path =
        rawFile("truncated", std::string(10, 'x'));
    EXPECT_EXIT(MmapTraceReader reader(path),
                ::testing::ExitedWithCode(1), "truncated header");
}

TEST(TraceBinaryDeathTest, BadMagicIsFatal)
{
    const std::string path = tempTrace("badmagic");
    writeBinaryTrace(path, everyKindPlans());
    std::string bytes = fileBytes(path);
    bytes[0] = 'X';
    const std::string bad = rawFile("badmagic2", bytes);
    EXPECT_EXIT(MmapTraceReader reader(bad),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(TraceBinaryDeathTest, WrongVersionIsFatal)
{
    const std::string path = tempTrace("badversion");
    writeBinaryTrace(path, everyKindPlans());
    std::string bytes = fileBytes(path);
    bytes[8] = 99; // version field follows the 8-byte magic
    const std::string bad = rawFile("badversion2", bytes);
    EXPECT_EXIT(MmapTraceReader reader(bad),
                ::testing::ExitedWithCode(1),
                "version 99 is not the supported version");
}

TEST(TraceBinaryDeathTest, ShortFinalRecordIsFatal)
{
    const std::string path = tempTrace("shortrec");
    writeBinaryTrace(path, everyKindPlans());
    std::string bytes = fileBytes(path);
    bytes.resize(bytes.size() - 7); // tear the last record
    const std::string bad = rawFile("shortrec2", bytes);
    EXPECT_EXIT(MmapTraceReader reader(bad),
                ::testing::ExitedWithCode(1), "short final record");
}

TEST(TraceBinaryDeathTest, RecordCountMismatchIsFatal)
{
    const std::string path = tempTrace("extrarec");
    writeBinaryTrace(path, everyKindPlans());
    std::string bytes = fileBytes(path);
    bytes.append(16, '\0'); // one whole record too many
    const std::string bad = rawFile("extrarec2", bytes);
    EXPECT_EXIT(MmapTraceReader reader(bad),
                ::testing::ExitedWithCode(1),
                "header declares 14 record");
}

TEST(TraceBinaryDeathTest, PerCoreCountMismatchIsFatal)
{
    const std::string path = tempTrace("badcounts");
    writeBinaryTrace(path, everyKindPlans());
    std::string bytes = fileBytes(path);
    bytes[sizeof(TraceFileHeader)] += 1; // core 0's count, +1
    const std::string bad = rawFile("badcounts2", bytes);
    EXPECT_EXIT(MmapTraceReader reader(bad),
                ::testing::ExitedWithCode(1),
                "per-core counts sum");
}

TEST(TraceBinaryDeathTest, RecordNamingUnknownCoreIsFatal)
{
    // Valid header block, but a record claims a core outside the
    // declared range (the count table was patched to keep the sums
    // consistent, so only the record check can catch it).
    const std::string path = tempTrace("badcore");
    writeBinaryTrace(path, {{MemOp::load(0x40)}});
    std::string bytes = fileBytes(path);
    bytes[tracePayloadOffset(1) + 1] = 5; // record 0's core field
    const std::string bad = rawFile("badcore2", bytes);
    MmapTraceReader reader(bad);
    TraceRecord rec;
    EXPECT_EXIT((void)reader.next(rec),
                ::testing::ExitedWithCode(1),
                "names core 5 but the header declares 1 core");
}

TEST(TraceBinaryDeathTest, WriterRejectsOutOfRangeCore)
{
    const std::string path = tempTrace("writercore");
    BinaryTraceWriter writer(path, 2);
    EXPECT_EXIT(writer.append(2, MemOp::load(0x40)),
                ::testing::ExitedWithCode(1),
                "2 core\\(s\\) but a record names core 2");
}

// --- mmap windowing ----------------------------------------------

TEST(TraceReader, WindowedReadStaysResidencyBounded)
{
    // A trace several times larger than the (minimum, one-page)
    // window: every record must still stream through correctly
    // while the mapping never exceeds a single window.
    const std::string path = tempTrace("window");
    std::vector<AccessPlan> plans(1);
    for (unsigned i = 0; i < 2500; ++i)
        plans[0].push_back(MemOp::load(Addr{i} * 64, 64));
    writeBinaryTrace(path, plans);

    MmapTraceReader reader(path, 1); // rounds up to one page
    ASSERT_LT(reader.windowBytes(),
              2500 * sizeof(TraceRecord)); // file >> window
    TraceRecord rec;
    std::uint64_t i = 0;
    while (reader.next(rec)) {
        EXPECT_EQ(rec.addr, i * 64) << "record " << i;
        ++i;
    }
    EXPECT_EQ(i, 2500u);
    EXPECT_LE(reader.maxMappedBytes(), reader.windowBytes());
    EXPECT_GT(reader.remaps(), 1u);
}

TEST(TraceReader, RewindReplaysFromTheFirstRecord)
{
    const std::string path = tempTrace("rewind");
    writeBinaryTrace(path, {{MemOp::load(0x40), MemOp::load(0x80)}});
    MmapTraceReader reader(path);
    TraceRecord rec;
    while (reader.next(rec)) {
    }
    reader.rewind();
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.addr, 0x40u);
}

// --- demultiplexing ----------------------------------------------

TEST(TraceDemuxTest, DeliversPerCoreStreamsInOrder)
{
    const std::string path = tempTrace("demux");
    const auto plans = everyKindPlans();
    writeBinaryTrace(path, plans);

    MmapTraceReader reader(path);
    TraceDemux demux(reader);
    ASSERT_EQ(demux.coreCount(), 3u);

    // Pull core 2 first: its records interleave with core 0's in
    // file order, so the demux must park the core-0 records it
    // reads past.
    for (const MemOp &want : plans[2]) {
        const MemOp *got = demux.source(2).peek();
        ASSERT_NE(got, nullptr);
        EXPECT_TRUE(sameOp(*got, want));
        demux.source(2).advance();
    }
    EXPECT_EQ(demux.source(2).peek(), nullptr);

    for (const MemOp &want : plans[0]) {
        const MemOp *got = demux.source(0).peek();
        ASSERT_NE(got, nullptr);
        EXPECT_TRUE(sameOp(*got, want));
        demux.source(0).advance();
    }
    EXPECT_EQ(demux.source(0).peek(), nullptr);
    EXPECT_LE(demux.maxQueued(), plans[0].size());
}

TEST(TraceDemuxTest, EmptyCoreReportsEndWithoutScanning)
{
    const std::string path = tempTrace("sparse");
    writeBinaryTrace(
        path, {{MemOp::load(0x40)}, {}, {MemOp::load(0x80)}});
    MmapTraceReader reader(path);
    TraceDemux demux(reader);
    // The per-core count table answers this without reading any
    // record from the file.
    EXPECT_EQ(demux.source(1).peek(), nullptr);
    EXPECT_EQ(reader.consumed(), 0u);
}

TEST(TraceDemuxTest, RepeatedPeekIsStable)
{
    const std::string path = tempTrace("peek");
    writeBinaryTrace(path, {{MemOp::load(0x40)}});
    MmapTraceReader reader(path);
    TraceDemux demux(reader);
    const MemOp *first = demux.source(0).peek();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(demux.source(0).peek(), first);
}

TEST(TraceDemuxDeathTest, SkewBeyondQueueCapacityIsFatal)
{
    // All of core 0's records precede core 1's; pulling core 1
    // first forces the demux to park more core-0 records than the
    // configured bound. writeBinaryTrace interleaves cores, so the
    // skewed file is appended core by core.
    const std::string path = tempTrace("skew");
    BinaryTraceWriter writer(path, 2);
    for (unsigned i = 0; i < 64; ++i)
        writer.append(0, MemOp::load(Addr{i} * 64));
    writer.append(1, MemOp::load(0x0));
    writer.finalize();

    MmapTraceReader reader(path);
    TraceDemux::Config config;
    config.queueCapacity = 8;
    TraceDemux demux(reader, config);
    EXPECT_EXIT((void)demux.source(1).peek(),
                ::testing::ExitedWithCode(1),
                "trace interleaving too skewed");
}

// --- replay equivalence ------------------------------------------

/** RC-NVM-compatible plans (no gathered loads) that exercise loads,
 *  stores, both orientations, prefetch, pinning, compute, fences. */
std::vector<AccessPlan>
replayPlans()
{
    std::vector<AccessPlan> plans(4);
    for (unsigned core = 0; core < 4; ++core) {
        AccessPlan &plan = plans[core];
        plan.push_back(MemOp::pin(Addr{core} << 20, 4096,
                                  core % 2 != 0
                                      ? Orientation::Column
                                      : Orientation::Row));
        for (unsigned i = 0; i < 200; ++i) {
            const Addr a = (Addr{core} << 20) + Addr{i} * 64;
            switch ((core + i) % 5) {
              case 0: plan.push_back(MemOp::load(a)); break;
              case 1: plan.push_back(MemOp::store(a, 8)); break;
              case 2: plan.push_back(MemOp::cload(a)); break;
              case 3: plan.push_back(MemOp::cstore(a, 8)); break;
              default:
                plan.push_back(
                    MemOp::cprefetch(a, Orientation::Column));
                break;
            }
            if (i % 64 == 63)
                plan.push_back(MemOp::fence());
            if (i % 32 == 31)
                plan.push_back(MemOp::compute(100));
        }
        plan.push_back(MemOp::unpin(Addr{core} << 20, 4096,
                                    core % 2 != 0
                                        ? Orientation::Column
                                        : Orientation::Row));
    }
    return plans;
}

cpu::MachineConfig
replayConfig()
{
    cpu::MachineConfig config;
    config.device = mem::DeviceKind::RcNvm;
    config.seed = 42; // immune to an ambient RCNVM_SEED
    return config;
}

std::string
statsJson(const cpu::RunResult &r)
{
    std::ostringstream os;
    util::writeStatsJson(os, r.stats, "replay", r.ticks);
    return os.str();
}

TEST(TraceReplay, StreamingMatchesFixedPlanByteForByte)
{
    const std::string path = tempTrace("replay1");
    writeBinaryTrace(path, replayPlans());

    cpu::Machine fixed(replayConfig());
    const std::string fixedJson =
        statsJson(fixed.run(readBinaryTrace(path)));

    MmapTraceReader reader(path);
    TraceDemux demux(reader);
    cpu::Machine streamed(replayConfig());
    const std::string streamJson =
        statsJson(streamed.runSources(demux.sources()));

    EXPECT_EQ(fixedJson, streamJson);
}

TEST(TraceReplay, SmallWindowDoesNotChangeReplayStatistics)
{
    // Streaming through a one-page window (dozens of remaps) is
    // invisible to the simulation.
    const std::string path = tempTrace("replaywin");
    writeBinaryTrace(path, replayPlans());

    MmapTraceReader big(path);
    TraceDemux demuxBig(big);
    cpu::Machine a(replayConfig());
    const std::string bigJson =
        statsJson(a.runSources(demuxBig.sources()));

    MmapTraceReader small(path, 1);
    TraceDemux demuxSmall(small);
    cpu::Machine b(replayConfig());
    const std::string smallJson =
        statsJson(b.runSources(demuxSmall.sources()));

    EXPECT_GT(small.remaps(), 1u);
    EXPECT_EQ(bigJson, smallJson);
}

TEST(TraceReplay, WrittenTraceStreamsThroughASmallDemuxQueue)
{
    // A compiled query (about 226 records per core) written by
    // writeBinaryTrace streams through a 32-record demux queue on the
    // Table-1 machine: the cores interleave in the file, so the demux
    // parks only as many records as the cores drift apart in time.
    const workload::TableSet tables =
        workload::TableSet::standard(2048, 1024, 5);
    const workload::QueryWorkload wl(tables);
    mem::AddressMap map(mem::geometryFor(mem::DeviceKind::RcNvm));
    const auto pd = wl.place(mem::DeviceKind::RcNvm, map);
    const auto q = wl.compile(workload::QueryId::Q1, pd, 4);
    const std::string path = tempTrace("query");
    writeBinaryTrace(path, q.phases[0]);

    cpu::MachineConfig table1 =
        core::table1Machine(mem::DeviceKind::RcNvm);
    table1.seed = 42; // immune to an ambient RCNVM_SEED
    cpu::Machine fixed(table1);
    const std::string fixedJson = statsJson(fixed.run(q.phases[0]));

    MmapTraceReader reader(path);
    TraceDemux::Config config;
    config.queueCapacity = 32;
    TraceDemux demux(reader, config);
    cpu::Machine streamed(table1);
    const std::string streamJson =
        statsJson(streamed.runSources(demux.sources()));

    EXPECT_EQ(fixedJson, streamJson);
    EXPECT_LE(demux.maxQueued(), config.queueCapacity);
}

// --- strict environment parsing at the fixed call sites ----------

class EnvConfigDeathTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        unsetenv("RCNVM_EPOCH_TICKS");
        unsetenv("RCNVM_TUPLES");
    }
};

TEST_F(EnvConfigDeathTest, MalformedEpochTicksIsFatal)
{
    // Used to be a raw strtoull: "garbage" silently became 0 (no
    // epoch sampling) instead of failing the experiment loudly.
    setenv("RCNVM_EPOCH_TICKS", "every-1000", 1);
    cpu::MachineConfig config;
    config.device = mem::DeviceKind::RcNvm;
    EXPECT_EXIT(
        (void)core::runStreamed(config, workload::QueryStreams{}),
        ::testing::ExitedWithCode(1), "RCNVM_EPOCH_TICKS");
}

TEST_F(EnvConfigDeathTest, EpochTicksOverflowIsFatal)
{
    setenv("RCNVM_EPOCH_TICKS", "18446744073709551616", 1);
    cpu::MachineConfig config;
    config.device = mem::DeviceKind::RcNvm;
    EXPECT_EXIT(
        (void)core::runStreamed(config, workload::QueryStreams{}),
        ::testing::ExitedWithCode(1), "overflows");
}

TEST_F(EnvConfigDeathTest, MalformedTuplesIsFatal)
{
    // Used to be a raw strtoull in bench_common: "64k" silently
    // truncated to 64 tuples.
    setenv("RCNVM_TUPLES", "64k", 1);
    EXPECT_EXIT((void)bench::benchTuples(),
                ::testing::ExitedWithCode(1), "RCNVM_TUPLES");
}

TEST_F(EnvConfigDeathTest, WellFormedValuesStillParse)
{
    setenv("RCNVM_TUPLES", "0x400", 1);
    EXPECT_EQ(bench::benchTuples(), 1024u);
    unsetenv("RCNVM_TUPLES");
    EXPECT_EQ(bench::benchTuples(123), 123u);
}

} // namespace
} // namespace rcnvm::trace
