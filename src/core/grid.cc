#include "core/grid.hh"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "util/chrome_trace.hh"

namespace rcnvm::core {

unsigned
hostWorkers()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
forEachCell(std::size_t n, unsigned workers,
            const std::function<void(std::size_t)> &job)
{
    // Every Machine constructor consults the tracer's environment;
    // resolving it here, before any worker exists, leaves the
    // workers only reading it.
    util::ChromeTracer::enableFromEnv();
    if (util::ChromeTracer::active())
        workers = 1;
    workers = static_cast<unsigned>(std::clamp<std::size_t>(
        workers, 1, std::max<std::size_t>(n, 1)));

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex errorLock;
    const auto work = [&] {
        for (std::size_t i = next++; i < n && !failed; i = next++) {
            try {
                job(i);
            } catch (...) {
                const std::lock_guard<std::mutex> guard(errorLock);
                if (!error)
                    error = std::current_exception();
                failed = true;
            }
        }
    };

    // Threads inherit the creating thread's signal mask: block the
    // asynchronous signals around the spawn, then restore the
    // caller's mask. Faults raised by the code itself stay
    // deliverable.
    sigset_t blocked, callerMask;
    sigfillset(&blocked);
    for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGTRAP, SIGABRT})
        sigdelset(&blocked, sig);
    pthread_sigmask(SIG_BLOCK, &blocked, &callerMask);
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) {
        try {
            pool.emplace_back(work);
        } catch (const std::system_error &) {
            break; // out of threads: the ones running finish the grid
        }
    }
    pthread_sigmask(SIG_SETMASK, &callerMask, nullptr);

    work();
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace rcnvm::core
