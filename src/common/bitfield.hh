/**
 * @file
 * Bit and integer helpers. The orchestrator LUT packer checks that
 * every field fits its slot of the 48-bit LUT word with insertBits.
 * Ranges are [hi:lo] inclusive, LSB-0, matching conventional RTL
 * notation.
 */

#ifndef CANON_COMMON_BITFIELD_HH
#define CANON_COMMON_BITFIELD_HH

#include <cstdint>

#include "common/logging.hh"

namespace canon
{

/** A mask with bits [hi:lo] set. */
constexpr std::uint64_t
mask(int hi, int lo)
{
    int width = hi - lo + 1;
    std::uint64_t m =
        width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
    return m << lo;
}

/** Return @p val with bits [hi:lo] replaced by @p field. */
inline std::uint64_t
insertBits(std::uint64_t val, int hi, int lo, std::uint64_t field)
{
    const std::uint64_t m = mask(hi, lo);
    panicIf((field << lo) & ~m, "insertBits: field 0x", std::hex, field,
            " does not fit in [", std::dec, hi, ":", lo, "]");
    return (val & ~m) | ((field << lo) & m);
}

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** ceil(a / b) for positive integers. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace canon

#endif // CANON_COMMON_BITFIELD_HH
