/**
 * @file
 * Pluggable request-selection policies for the channel controller
 * (Ramulator-style policy/mechanism split).
 *
 * The controller keeps the mechanism: the bank scan, readiness and
 * bus-slot computation, starvation control, wakeups, and the issue
 * itself. The policy only ranks the candidates that are ready in one
 * scheduling round, so swapping policies can never violate timing or
 * starvation invariants. FrFcfs reproduces the historical controller
 * selection exactly (byte-identical goldens).
 */

#ifndef RCNVM_MEM_SCHED_POLICY_HH_
#define RCNVM_MEM_SCHED_POLICY_HH_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

namespace rcnvm::mem {

/** One ready request a scheduling round may choose from. */
struct SchedCandidate {
    unsigned bank = 0;     //!< flat bank index within the channel
    std::size_t pos = 0;   //!< position in the bank's FIFO
    std::uint64_t seq = 0; //!< global arrival order
    bool hit = false;      //!< hits the bank's currently open buffer
    bool isWrite = false;  //!< request is a store / write-back
    bool priority = false; //!< OLTP-class (latency-critical) packet
};

/** Which selection policy a controller should construct. */
enum class SchedPolicyKind {
    FrFcfs,       //!< first-ready FCFS (default; Rixner et al.)
    Fcfs,         //!< strict arrival order, no hit-first reordering
    ReadPriority, //!< OLTP-class reads bypass queued writes
};

/** Stable lowercase name ("frfcfs", "fcfs", "readpri"). */
const char *toString(SchedPolicyKind kind);

/** Parse a policy name; false when @p s names no policy. */
bool parseSchedPolicy(std::string_view s, SchedPolicyKind &out);

/**
 * A request-selection policy. The controller drives one round per
 * scheduling pass: begin(), one offer() per ready candidate, then
 * choose(). Policies are per-controller objects and may keep state
 * across rounds.
 */
class SchedulerPolicy
{
  public:
    virtual ~SchedulerPolicy() = default;

    /** Stable policy name for reports and traces. */
    virtual const char *name() const = 0;

    /** Start a scheduling round. */
    virtual void begin() = 0;

    /**
     * Offer one candidate whose bank and bus slot are ready now.
     * Within a bank the controller offers at most the FIFO front
     * (pos 0) and the oldest open-buffer hit (pos > 0).
     */
    virtual void offer(const SchedCandidate &c) = 0;

    /** Select the round's winner; false when nothing was offered. */
    virtual bool choose(SchedCandidate &out) const = 0;
};

/** Construct the policy object for @p kind. */
std::unique_ptr<SchedulerPolicy> makeSchedulerPolicy(SchedPolicyKind kind);

} // namespace rcnvm::mem

#endif // RCNVM_MEM_SCHED_POLICY_HH_
