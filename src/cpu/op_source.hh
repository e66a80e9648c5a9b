/**
 * @file
 * The pull-based operation-stream seam a core replays from.
 *
 * Historically a core consumed a pre-materialised AccessPlan (a
 * vector borrowed for the whole run). That shape cannot express an
 * unbounded input — a multi-GB binary trace must stream through a
 * window, not sit in memory — so the core now pulls operations from
 * this interface one at a time, and the fixed plan becomes just one
 * implementation of it (PlanOpSource). Trace replay plugs in a
 * windowed reader behind the same two calls, and compiled queries
 * and serve requests plug in coroutine generators (StreamOpSource).
 */

#ifndef RCNVM_CPU_OP_SOURCE_HH_
#define RCNVM_CPU_OP_SOURCE_HH_

#include <cstddef>

#include "cpu/mem_op.hh"
#include "util/generator.hh"

namespace rcnvm::cpu {

/**
 * A stream of operations consumed by one core.
 *
 * The contract mirrors how the core's issue loop re-presents work
 * after stalls: peek() must be repeatable — calling it again without
 * an intervening advance() returns the same operation — and the
 * returned pointer stays valid until advance() consumes it. A
 * streaming implementation may perform I/O inside peek() (refilling
 * its window); the core only calls it from event context.
 */
class OpSource
{
  public:
    virtual ~OpSource() = default;

    /** The operation at the head of the stream, or nullptr when the
     *  stream is exhausted. */
    virtual const MemOp *peek() = 0;

    /** Consume the head operation. @pre peek() != nullptr */
    virtual void advance() = 0;
};

/**
 * The fixed-plan source: adapts a borrowed AccessPlan to the stream
 * seam. Machine::run(plans) wraps each plan in one, so plan replay
 * and stream replay share one issue loop and stay tick-identical by
 * construction.
 */
class PlanOpSource final : public OpSource
{
  public:
    /** The plan is borrowed, not copied: the caller must keep it
     *  alive until the stream is exhausted. */
    explicit PlanOpSource(const AccessPlan &plan) : plan_(&plan) {}

    const MemOp *
    peek() override
    {
        return pc_ < plan_->size() ? &(*plan_)[pc_] : nullptr;
    }

    void advance() override { ++pc_; }

  private:
    const AccessPlan *plan_;
    std::size_t pc_ = 0;
};

/** A lazily generated operation stream (one core's share of a
 *  compiled query or of a serve request). */
using OpStream = util::Generator<MemOp>;

/**
 * The generator source: adapts an owned OpStream to the stream seam.
 * The head operation is produced at construction, so an exhausted
 * stream is visible (peek() == nullptr) before any core starts on it.
 */
class StreamOpSource final : public OpSource
{
  public:
    explicit StreamOpSource(OpStream stream)
        : stream_(std::move(stream)), head_(stream_.next())
    {
    }

    const MemOp *peek() override { return head_; }

    void advance() override { head_ = stream_.next(); }

  private:
    OpStream stream_;
    const MemOp *head_;
};

/** Every operation of @p stream, in order, as a plan. */
inline AccessPlan
drain(OpStream stream)
{
    AccessPlan plan;
    stream.drainInto(plan);
    return plan;
}

} // namespace rcnvm::cpu

#endif // RCNVM_CPU_OP_SOURCE_HH_
