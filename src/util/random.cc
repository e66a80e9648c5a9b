#include "util/random.hh"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/logging.hh"

namespace rcnvm::util {

namespace {

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Random::Random(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

std::int64_t
Random::nextRange(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Random::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Random::nextBool(double p)
{
    return nextDouble() < p;
}

ParseUint
parseUint64(const char *text, std::uint64_t &value)
{
    // strtoull is too permissive on its own: it accepts leading
    // whitespace and signs, stops silently at the first bad
    // character, and saturates on overflow. Each of those turns a
    // typo into a quietly different experiment, so all are rejected.
    if (*text == '\0' ||
        std::isspace(static_cast<unsigned char>(*text)) ||
        *text == '+' || *text == '-')
        return ParseUint::Malformed;
    const int base =
        (text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) ? 16
                                                               : 10;
    char *end = nullptr;
    errno = 0;
    value = std::strtoull(text, &end, base);
    if (end == text || *end != '\0')
        return ParseUint::Malformed;
    if (errno == ERANGE)
        return ParseUint::Overflow;
    return ParseUint::Ok;
}

std::uint64_t
envUint64(const char *name, std::uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    std::uint64_t value = 0;
    switch (parseUint64(env, value)) {
      case ParseUint::Ok:
        return value;
      case ParseUint::Overflow:
        rcnvm_fatal(name, "=\"", env, "\" overflows 64 bits");
      case ParseUint::Malformed:
        break;
    }
    rcnvm_fatal(name, "=\"", env,
                "\" is not a valid decimal or 0x-hex unsigned "
                "integer");
}

std::uint64_t
envSeed(std::uint64_t fallback)
{
    return envUint64("RCNVM_SEED", fallback);
}

} // namespace rcnvm::util
