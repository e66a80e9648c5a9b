/**
 * @file
 * Configuration presets reproducing Table 1 of the paper.
 */

#ifndef RCNVM_CORE_PRESETS_HH_
#define RCNVM_CORE_PRESETS_HH_

#include "cpu/machine.hh"
#include "mem/timing.hh"

namespace rcnvm::core {

/**
 * The Table-1 machine: 4 x86-like cores at 2 GHz, 32 KB L1 / 256 KB
 * L2 private, 8 MB shared L3, 64 B lines, 8-way everywhere, FR-FCFS
 * controllers with 32-entry queues, and the chosen memory device.
 */
cpu::MachineConfig table1Machine(mem::DeviceKind kind);

/**
 * Table-1 machine with an RRAM/RC-NVM cell latency override
 * (Figure-22 sensitivity study).
 *
 * @param read_ns   cell read access time
 * @param write_ns  cell write pulse width
 */
cpu::MachineConfig table1MachineWithCell(mem::DeviceKind kind,
                                         double read_ns,
                                         double write_ns);

/**
 * The Table-1 RC-NVM machine fronted by a small DRAM tier (2 MB by
 * default: 16 frames x 8 banks x 2 channels of one 8 KB far row
 * each) under the given migration policy. The far device and every
 * cache parameter match table1Machine(RcNvm), so hybrid results are
 * directly comparable to the static placements.
 */
cpu::MachineConfig hybridTable1Machine(mem::MigrationPolicyKind policy);

/**
 * The serving-scale machine: 16 cores and an 8-channel device (the
 * Table-1 geometry widened 4x in channels), with the Table-1 cache
 * hierarchy and a 16 MB L3: the machine of the multi-tenant serving
 * bench and of the BM_Serve16Machine microbenchmark.
 */
cpu::MachineConfig serve16Machine(mem::DeviceKind kind);

} // namespace rcnvm::core

#endif // RCNVM_CORE_PRESETS_HH_
