/**
 * @file
 * Fundamental scalar type aliases shared by every RC-NVM module.
 *
 * The quantities that used to be bare `std::uint64_t` aliases are
 * now distinct `util::Strong` instantiations, so the compiler
 * rejects the two bug classes this simulator is most exposed to:
 * mixing the row- and column-oriented views of the same physical
 * location (the paper's synonym problem, Sec. 4.2) and mixing cycle
 * counts across the three clock domains (2 GHz CPU, DDR3-1333,
 * LPDDR3-800).
 */

#ifndef RCNVM_UTIL_TYPES_HH_
#define RCNVM_UTIL_TYPES_HH_

#include <cstdint>

#include "util/strong.hh"

namespace rcnvm {

/** Tag for simulated time. */
struct TickTag {};

/**
 * Simulated time in ticks. One tick is one picosecond. A strong
 * type: construct explicitly (`Tick{500}`), scale by raw integers,
 * add/subtract/compare other Ticks, and escape with `.value()`.
 */
using Tick = util::Strong<std::uint64_t, TickTag>;

/**
 * A raw physical memory address (32-bit address space, stored in
 * 64). This is the orientation-*erased* form used where the
 * orientation travels alongside as runtime data (packets, cache
 * keys); code that statically knows its address space uses RowAddr /
 * ColAddr below.
 */
using Addr = std::uint64_t;

/** Orientation of a memory access or cache line (see paper Sec. 4.2). */
enum class Orientation : std::uint8_t {
    Row = 0,    //!< conventional row-oriented access (load/store)
    Column = 1, //!< column-oriented access (cload/cstore)
};

/** Tag for an @p O -oriented address. */
template <Orientation O>
struct OrientTag {};

/**
 * An address that is statically known to live in the @p O address
 * space of Figure 7. Row- and column-oriented addresses name the
 * same physical locations with swapped bit fields, so the two
 * instantiations do not mix: `AddressMap::convert` is the only legal
 * bridge, and `.value()` the audited escape to the erased Addr.
 */
template <Orientation O>
using OrientedAddr = util::Strong<Addr, OrientTag<O>>;

/** A row-oriented (load/store space) address. */
using RowAddr = OrientedAddr<Orientation::Row>;

/** A column-oriented (cload/cstore space) address. */
using ColAddr = OrientedAddr<Orientation::Column>;

// Clock domains ---------------------------------------------------

/** Tag for the 2 GHz CPU clock domain. */
struct CpuClk {};

/**
 * Tag for a memory-device clock domain (DDR3-1333's 666 MHz bus
 * clock or LPDDR3-800's 400 MHz clock; which one is instance state
 * of the owning `sim::ClockDomain` / `mem::TimingParams`, selected
 * with the device at runtime). The tag separates the clock *kinds*
 * that coexist in one code path — CPU cycles never mix with device
 * cycles, and neither mixes with ticks.
 */
struct MemClk {};

/**
 * A cycle count inside the clock domain named by @p Dom. Same-domain
 * cycle arithmetic works directly; crossing to ticks (or to another
 * domain) goes through `sim::ClockDomain`.
 */
template <typename Dom>
using Cycles = util::Strong<std::uint64_t, Dom>;

/** Cycles of the 2 GHz CPU clock. */
using CpuCycles = Cycles<CpuClk>;

/** Cycles of the owning memory device's clock. */
using MemCycles = Cycles<MemClk>;

// Tick helpers ----------------------------------------------------

/** Number of ticks in one nanosecond. */
inline constexpr Tick ticksPerNs{1000};

/** Convert nanoseconds into ticks. */
constexpr Tick
nsToTicks(double ns)
{
    return Tick{static_cast<Tick::value_type>(
        ns * static_cast<double>(ticksPerNs.value()))};
}

/** Convert ticks into (fractional) nanoseconds. */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t.value()) /
           static_cast<double>(ticksPerNs.value());
}

/** Human-readable name for an orientation. */
constexpr const char *
toString(Orientation o)
{
    return o == Orientation::Row ? "row" : "column";
}

/** The opposite orientation. */
constexpr Orientation
flip(Orientation o)
{
    return o == Orientation::Row ? Orientation::Column
                                 : Orientation::Row;
}

} // namespace rcnvm

#endif // RCNVM_UTIL_TYPES_HH_
