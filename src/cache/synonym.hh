/**
 * @file
 * Crossing-line geometry for the cache synonym problem (Sec. 4.3).
 *
 * A 64-byte row-oriented line holds 8 consecutive words of one
 * physical row; each of those words also belongs to exactly one
 * column-oriented line (8 consecutive words of one physical column),
 * and vice versa. These helpers enumerate the 8 potential crossing
 * lines of a given line and locate the shared word in each. The 8
 * partners of a line are evenly spaced in their own address space,
 * so crossings() decodes only the first (DESIGN.md section 4m).
 */

#ifndef RCNVM_CACHE_SYNONYM_HH_
#define RCNVM_CACHE_SYNONYM_HH_

#include <array>

#include "cache/line.hh"
#include "mem/geometry.hh"
#include "util/types.hh"

namespace rcnvm::cache {

/** One crossing relationship between two lines. */
struct Crossing {
    LineKey partner;      //!< the crossing line in the other space
    unsigned selfWord;    //!< shared word's index within this line
    unsigned partnerWord; //!< shared word's index within the partner
};

/**
 * Computes crossing sets using a device's address map. Only valid
 * for dual-addressable (square-subarray) geometries.
 */
class SynonymMapper
{
  public:
    /** Words per cache line (64 B / 8 B). */
    static constexpr unsigned wordsPerLine = 8;

    explicit SynonymMapper(const mem::AddressMap &map) : map_(&map) {}

    /**
     * Enumerate the 8 lines of the opposite orientation that share a
     * word with @p key: one address decode for the first, then a
     * fixed stride (the other orientation's slower-varying field)
     * for the rest.
     */
    std::array<Crossing, wordsPerLine>
    crossings(const LineKey &key) const;

    /**
     * The crossing line containing word @p word_index of @p key,
     * without enumerating all eight.
     */
    Crossing crossingOfWord(const LineKey &key,
                            unsigned word_index) const;

  private:
    const mem::AddressMap *map_;
};

} // namespace rcnvm::cache

#endif // RCNVM_CACHE_SYNONYM_HH_
