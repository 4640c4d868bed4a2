/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic inputs in this repository (sparse patterns, matrix
 * values, workload shuffles) flow through Rng so that every experiment
 * is reproducible from a seed, independent of the platform's std::
 * distribution implementations.
 *
 * The core generator is xoshiro256** (Blackman & Vigna), which is small,
 * fast and has no measurable bias for the uses here.
 */

#ifndef CANON_COMMON_RNG_HH
#define CANON_COMMON_RNG_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace canon
{

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    // The draws run once per generated matrix element: inline.

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        panicIf(bound == 0, "Rng::nextBounded: bound must be nonzero");
        // Rejection sampling to avoid modulo bias: draws below
        // (2^64 - bound) % bound are redrawn. That threshold is below
        // bound, so only a draw below bound (almost never) pays the
        // division that computes it.
        std::uint64_t r = next();
        if (r < bound) {
            const std::uint64_t threshold = (-bound) % bound;
            while (r < threshold)
                r = next();
        }
        return r % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    nextRange(std::int64_t lo, std::int64_t hi)
    {
        panicIf(lo > hi, "Rng::nextRange: empty range [", lo, ",", hi,
                "]");
        const std::uint64_t span =
            static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(nextBounded(span));
    }

    /** Uniform integer in [0, 2^53): the 53 high bits of next(). */
    std::uint64_t next53() { return next() >> 11; }

    /** Uniform double in [0, 1): next53() * 2^-53, exactly. */
    double
    nextDouble()
    {
        return static_cast<double>(next53()) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of true. */
    bool nextBool(double p) { return nextDouble() < p; }

    /**
     * nextBool(@p p) as one integer compare, for a p fixed over many
     * draws: nextBool(p) == (next53() < boolThreshold(p)), draw for
     * draw, because next53() * 2^-53 < p exactly when next53() <
     * ceil(p * 2^53). Panics unless p is in [0, 1], NaN included: the
     * conversion of any other p * 2^53 is undefined.
     */
    static std::uint64_t boolThreshold(double p);

    /** Fisher-Yates shuffle of @p v. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = nextBounded(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Choose @p k distinct values from [0, n), ascending. */
    std::vector<std::uint32_t> sample(std::uint32_t n, std::uint32_t k);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace canon

#endif // CANON_COMMON_RNG_HH
