/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All stochastic choices in the repository flow through this class so
 * that every experiment is exactly reproducible from its seed.
 */

#ifndef RCNVM_UTIL_RANDOM_HH_
#define RCNVM_UTIL_RANDOM_HH_

#include <bit>
#include <cassert>
#include <cstdint>

namespace rcnvm::util {

/**
 * xoshiro256** generator. Small, fast, and good enough statistical
 * quality for synthetic database contents and selectivity draws.
 *
 * next() and nextBounded() are defined inline: table generation makes
 * millions of draws, and a constant bound such as Table::valueRange
 * then turns both divisions into multiplies.
 */
class Random
{
  public:
    /** Construct from a 64-bit seed (SplitMix64 expansion). */
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit word. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        assert(bound > 0);
        // Rejection sampling to remove modulo bias.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of true. */
    bool nextBool(double p);

  private:
    std::uint64_t s_[4];
};

/** Outcome of a strict unsigned-integer parse. */
enum class ParseUint {
    Ok,        //!< the whole string parsed
    Malformed, //!< empty, signed, partial, or non-numeric input
    Overflow,  //!< syntactically valid but exceeds 64 bits
};

/**
 * Strictly parse @p text as an unsigned 64-bit integer, decimal or
 * 0x-prefixed hexadecimal. Unlike raw strtoull/stoull this rejects
 * leading whitespace, signs (so "-1" cannot wrap to a huge value),
 * partial parses ("123abc"), and overflow saturation — every
 * deviation is reported instead of silently yielding a different
 * number. On success @p value holds the result; it is unspecified
 * otherwise. All user-facing numeric input (environment variables,
 * trace files) routes through this one validator.
 */
ParseUint parseUint64(const char *text, std::uint64_t &value);

/**
 * Strictly parsed unsigned 64-bit environment variable: @p fallback
 * when @p name is unset, otherwise the value parsed as decimal or
 * 0x-prefixed hexadecimal. The whole string must parse — a partial
 * parse ("123abc"), an empty value, a sign, or an out-of-range
 * magnitude is a fatal configuration error rather than a silent 0
 * or a silent truncation.
 */
std::uint64_t envUint64(const char *name, std::uint64_t fallback);

/**
 * The experiment seed: the RCNVM_SEED environment variable when set
 * (decimal or 0x-hex, strictly validated — malformed values are
 * fatal), otherwise @p fallback. All seed-taking entry points (table
 * generation, the OLXP service generators) default through this, so
 * one variable reseeds a whole run without recompiling.
 */
std::uint64_t envSeed(std::uint64_t fallback);

} // namespace rcnvm::util

#endif // RCNVM_UTIL_RANDOM_HH_
