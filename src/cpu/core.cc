#include "cpu/core.hh"

#include "util/chrome_trace.hh"
#include "util/logging.hh"

namespace rcnvm::cpu {

Core::Core(unsigned id, sim::EventQueue &eq,
           cache::Hierarchy &hierarchy, unsigned window)
    : id_(id),
      eq_(eq),
      hierarchy_(hierarchy),
      window_(window),
      clock_(hierarchy.config().cpuClock())
{
    hierarchy_.setRetryHandler(id_, [this] { onRetry(); });
}

void
Core::start(OpSource &source,
            util::UniqueFunction<void(Tick)> on_finish)
{
    source_ = &source;
    onFinish_ = std::move(on_finish);
    outstanding_ = 0;
    readyTick_ = eq_.now();
    finished_ = false;
    stalledFull_ = false;
    stalledRetry_ = false;
    scheduleAdvance(eq_.now());
}

void
Core::scheduleAdvance(Tick when)
{
    if (advanceScheduled_)
        return;
    advanceScheduled_ = true;
    eq_.schedule(when, [this] {
        advanceScheduled_ = false;
        advance();
    });
}

void
Core::onAccessDone()
{
    --outstanding_;
    if (stalledFull_) {
        stalledFull_ = false;
        stallTicks_.inc((eq_.now() - stallStart_).value());
    }
    advance();
}

void
Core::onRetry()
{
    // The hierarchy broadcasts; only a core actually parked on a
    // refused access reacts.
    if (!stalledRetry_)
        return;
    stalledRetry_ = false;
    retryStallTicks_.inc((eq_.now() - retryStallStart_).value());
    advance();
}

void
Core::advance()
{
    if (finished_)
        return;

    while (const MemOp *head = source_->peek()) {
        const Tick now = eq_.now();
        if (now < readyTick_) {
            scheduleAdvance(readyTick_);
            return;
        }

        const MemOp &op = *head;
        switch (op.kind) {
          case OpKind::Compute:
            readyTick_ = now + clock_.cyclesToTicks(
                                   CpuCycles{op.computeCycles});
            source_->advance();
            continue;

          case OpKind::Pin:
            hierarchy_.pinRange(op.addr, op.pinOrient, op.bytes,
                                true);
            readyTick_ = now + clock_.cyclesToTicks(CpuCycles{2});
            source_->advance();
            continue;

          case OpKind::Unpin:
            hierarchy_.pinRange(op.addr, op.pinOrient, op.bytes,
                                false);
            readyTick_ = now + clock_.cyclesToTicks(CpuCycles{2});
            source_->advance();
            continue;

          case OpKind::Fence:
            if (outstanding_ > 0)
                return; // resumed by onAccessDone
            source_->advance();
            continue;

          case OpKind::Load:
          case OpKind::Store:
          case OpKind::CLoad:
          case OpKind::CStore:
          case OpKind::CPrefetch:
          case OpKind::GLoad: {
            if (outstanding_ >= window_) {
                if (!stalledFull_) {
                    stalledFull_ = true;
                    stallStart_ = now;
                }
                return; // resumed by onAccessDone
            }

            cache::CacheAccess access;
            access.addr = op.addr;
            access.orient = op.orientation();
            access.isWrite = op.isWrite();
            access.bypass = op.kind == OpKind::GLoad;
            access.prefetchL3 = op.kind == OpKind::CPrefetch;
            access.priority = priority_;
            // Completion is always delivered through the event queue
            // (never synchronously from inside access), so the
            // post-acceptance bookkeeping below cannot race it.
            bool accepted;
#if RCNVM_PACKET_TRACE
            if (util::ChromeTracer::active()) {
                // Traced path only: the issue tick and address ride
                // in the continuation, so the untraced continuation
                // stays as small as before.
                accepted = hierarchy_.access(
                    id_, access,
                    [this, addr = op.addr, t0 = now](Tick t) {
                        RCNVM_TRACE_COMPLETE(
                            "memop", util::ChromeTracer::kPidCpu, id_,
                            t0, t - t0, addr);
                        onAccessDone();
                    });
            } else
#endif
            {
                accepted = hierarchy_.access(
                    id_, access, [this](Tick) { onAccessDone(); });
            }
            if (!accepted) {
                retries_.inc();
                if (!stalledRetry_) {
                    stalledRetry_ = true;
                    retryStallStart_ = now;
                }
                return; // resumed by onRetry
            }
            ++outstanding_;
            memOps_.inc();
            source_->advance();
            readyTick_ = now + clock_.period(); // one issue per cycle
            continue;
          }
        }
    }

    // Reaching here means the source is exhausted (the loop returns
    // from inside on every stall).
    // The final operation may have been a Compute/Pin that set a
    // future ready time; the core is only done once it elapses.
    if (eq_.now() < readyTick_) {
        scheduleAdvance(readyTick_);
        return;
    }

    if (outstanding_ == 0 && !finished_) {
        finished_ = true;
        // Detach the continuation before invoking it: a scheduler
        // may start() this core again from inside the callback
        // (dispatching the next queued request onto the freed core),
        // which overwrites onFinish_ while it executes.
        if (onFinish_) {
            auto fn = std::move(onFinish_);
            fn(eq_.now());
        }
    }
}

} // namespace rcnvm::cpu
