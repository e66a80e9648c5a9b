/**
 * @file
 * 64-bit FNV-1a, the hash golden tests fold their observations into
 * (completion ticks, or a whole stats-JSON document), so one pinned
 * number covers every value it absorbed.
 */

#ifndef RCNVM_TESTS_FNV1A_HH_
#define RCNVM_TESTS_FNV1A_HH_

#include <cstdint>
#include <string_view>

namespace rcnvm::test {

/** A running FNV-1a hash. */
struct Fnv1a {
    std::uint64_t hash = 1469598103934665603ull; // offset basis

    void
    byte(unsigned char b)
    {
        hash ^= b;
        hash *= 1099511628211ull; // FNV-1a prime
    }

    /** Fold the eight bytes of @p v, least significant first. */
    void
    word(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b)
            byte(static_cast<unsigned char>(v >> (8 * b)));
    }

    /** Fold every byte of @p s. */
    void
    text(std::string_view s)
    {
        for (const char c : s)
            byte(static_cast<unsigned char>(c));
    }
};

} // namespace rcnvm::test

#endif // RCNVM_TESTS_FNV1A_HH_
