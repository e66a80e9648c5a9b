/**
 * @file
 * The experiment grid: run independent cells (one machine each) on
 * a pool of host threads and return their results in index order.
 *
 * Each machine runs on its own event queue and shares nothing
 * mutable with another, so cells can run side by side; every result
 * lands in its own slot, so the output is byte-identical to a serial
 * run by construction (DESIGN.md section 4f).
 */

#ifndef RCNVM_CORE_GRID_HH_
#define RCNVM_CORE_GRID_HH_

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace rcnvm::core {

/** The default worker count: the host's hardware threads. It is a
 *  property of the host, not of any model. */
unsigned hostWorkers();

/**
 * Call @p job(i) once for every i in [0, n) on @p workers threads,
 * the calling thread among them, each taking the next index from a
 * shared counter. Worker threads block asynchronous signals, so the
 * host program's handlers keep running on the calling thread. While
 * a chrome trace is recording (RCNVM_CHROME_TRACE, resolved here
 * before any worker starts) everything runs on the calling thread:
 * the tracer is one unsynchronised buffer. The first exception a job
 * throws stops further jobs and is rethrown here.
 */
void forEachCell(std::size_t n, unsigned workers,
                 const std::function<void(std::size_t)> &job);

/**
 * Run @p cell(i) for every i in [0, n) with forEachCell() and return
 * the results in index order, whatever order the cells finished in.
 */
template <class Cell>
auto
runGrid(std::size_t n, Cell &&cell, unsigned workers = hostWorkers())
{
    using Result = std::invoke_result_t<Cell &, std::size_t>;
    std::vector<std::optional<Result>> slots(n);
    forEachCell(n, workers,
                [&](std::size_t i) { slots[i].emplace(cell(i)); });
    std::vector<Result> out;
    out.reserve(n);
    for (std::optional<Result> &slot : slots)
        out.push_back(std::move(*slot));
    return out;
}

} // namespace rcnvm::core

#endif // RCNVM_CORE_GRID_HH_
