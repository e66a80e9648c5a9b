/**
 * @file
 * Tests for core::runGrid, the pool the figure benches run their
 * independent machines on: results in index order whatever order
 * cells finish in, a cell's exception rethrown on the caller,
 * asynchronous signals kept off the workers, one worker while a
 * chrome trace records, and the SQL suite byte-identical at any
 * worker count. tools/run_sanitizers.sh tsan runs these under
 * ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "core/grid.hh"
#include "util/chrome_trace.hh"
#include "util/stats_io.hh"

namespace rcnvm::core {
namespace {

std::string
statsJson(const ExperimentResult &r)
{
    std::ostringstream os;
    util::writeStatsJson(os, r.stats, "cell", r.ticks);
    return os.str();
}

TEST(RunGrid, ResultsComeBackInIndexOrder)
{
    // Later cells are shorter, so cells finish out of index order.
    constexpr std::size_t n = 16;
    std::atomic<int> finished{0};
    std::mutex lock;
    std::set<std::thread::id> threads;
    const auto out = runGrid(
        n,
        [&](std::size_t i) {
            {
                const std::lock_guard<std::mutex> guard(lock);
                threads.insert(std::this_thread::get_id());
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2 * (n - i)));
            return std::pair{i, finished++};
        },
        4);
    ASSERT_EQ(out.size(), n);
    bool outOfOrder = false;
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i].first, i);
        outOfOrder |= i > 0 && out[i].second < out[i - 1].second;
    }
    EXPECT_TRUE(outOfOrder);
    EXPECT_GT(threads.size(), 1u);
}

TEST(RunGrid, EmptyGridRunsNothing)
{
    EXPECT_TRUE(runGrid(0, [](std::size_t i) { return i; }, 4).empty());
}

TEST(RunGrid, RethrowsACellsException)
{
    EXPECT_THROW(runGrid(
                     8,
                     [](std::size_t i) {
                         if (i == 5)
                             throw std::runtime_error("cell 5");
                         return i;
                     },
                     3),
                 std::runtime_error);
}

TEST(RunGrid, WorkersBlockAsynchronousSignals)
{
    const pthread_t caller = pthread_self();
    const auto out = runGrid(
        8,
        [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            sigset_t mask;
            pthread_sigmask(SIG_SETMASK, nullptr, &mask);
            return std::pair{pthread_equal(pthread_self(), caller) != 0,
                             sigismember(&mask, SIGALRM) == 1};
        },
        4);
    for (const auto &[onCaller, blocked] : out)
        EXPECT_EQ(blocked, !onCaller);
    // The caller's own mask is restored.
    sigset_t mask;
    pthread_sigmask(SIG_SETMASK, nullptr, &mask);
    EXPECT_EQ(sigismember(&mask, SIGALRM), 0);
}

TEST(RunGrid, TracedGridRunsOnTheCallerAndMatchesUntraced)
{
    util::setLogLevel(util::LogLevel::Quiet);
    const workload::TableSet tables = workload::TableSet::standard(2048);
    const workload::QueryWorkload wl(tables);
    const std::vector<workload::QueryId> ids = {
        workload::QueryId::Q1, workload::QueryId::Q6,
        workload::QueryId::Q12};
    const auto &devices = bench::allDevices();
    std::mutex lock;
    std::set<std::thread::id> threads;
    const auto cell = [&](std::size_t i) {
        {
            const std::lock_guard<std::mutex> guard(lock);
            threads.insert(std::this_thread::get_id());
        }
        return runQuery(devices[i % devices.size()], wl,
                        ids[i / devices.size()]);
    };
    const std::size_t n = ids.size() * devices.size();
    const std::vector<ExperimentResult> untraced = runGrid(n, cell, 4);

    const std::string path = ::testing::TempDir() + "grid_trace.json";
    util::ChromeTracer::enable(path);
    threads.clear();
    const std::vector<ExperimentResult> traced = runGrid(n, cell, 4);
    ASSERT_NE(util::ChromeTracer::active(), nullptr);
    EXPECT_GT(util::ChromeTracer::active()->eventCount(), 0u);
    util::ChromeTracer::disable();
    std::remove(path.c_str());

    EXPECT_EQ(threads, std::set{std::this_thread::get_id()});
    ASSERT_EQ(traced.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(statsJson(traced[i]), statsJson(untraced[i])) << i;
}

TEST(RunGrid, SqlSuiteIsByteIdenticalAtOneTwoAndFourWorkers)
{
    const auto suiteJson = [](unsigned workers) {
        std::string all;
        for (const bench::QueryRow &row :
             bench::runSqlSuite(32768, workers)) {
            for (const ExperimentResult &r : row.byDevice)
                all += statsJson(r);
        }
        return all;
    };
    const std::string one = suiteJson(1);
    EXPECT_EQ(suiteJson(2), one);
    EXPECT_EQ(suiteJson(4), one);
}

} // namespace
} // namespace rcnvm::core
