/**
 * @file
 * Textual access-trace serialisation.
 *
 * The paper's released artifact (RCNVMTrace) distributes the
 * workload as memory-access traces. This module is the
 * human-editable side of that capability: any per-core access plan
 * can be written to and parsed from a portable text format.
 * `rcnvm_trace convert` turns it into the binary format
 * (trace_binary.hh), which `rcnvm_trace run` replays on any device
 * model.
 *
 * Format: one operation per line, `#` starts a comment, and a
 * `@core N` directive switches the core the following operations
 * belong to.
 *
 *   L  <addr>             row-oriented 64-byte load
 *   S  <addr> <bytes>     row-oriented store
 *   CL <addr>             column-oriented load (cload)
 *   CS <addr> <bytes>     column-oriented store (cstore)
 *   CP <addr> <R|C>       group-caching prefetch into the LLC
 *   G  <addr>             GS-DRAM gathered load
 *   C  <cycles>           compute delay
 *   P  <addr> <bytes> <R|C>   pin an LLC range
 *   U  <addr> <bytes> <R|C>   unpin an LLC range
 *   F                     fence (drain outstanding accesses)
 *
 * Addresses are hexadecimal with 0x prefix.
 */

#ifndef RCNVM_TRACE_TRACE_IO_HH_
#define RCNVM_TRACE_TRACE_IO_HH_

#include <iosfwd>
#include <string>
#include <vector>

#include "cpu/mem_op.hh"

namespace rcnvm::trace {

/** Serialise per-core plans to the text format. */
void writeTrace(std::ostream &os,
                const std::vector<cpu::AccessPlan> &plans);

/**
 * Parse a trace. Malformed lines are a fatal error with the line
 * number in the message.
 *
 * @return one plan per `@core` section (cores may be sparse; empty
 *         plans are kept so core indices round-trip)
 */
std::vector<cpu::AccessPlan> readTrace(std::istream &is);

/** Convenience: serialise to a string. */
std::string toString(const std::vector<cpu::AccessPlan> &plans);

/** Convenience: parse from a string. */
std::vector<cpu::AccessPlan> fromString(const std::string &text);

} // namespace rcnvm::trace

#endif // RCNVM_TRACE_TRACE_IO_HH_
