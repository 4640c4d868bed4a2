#include "common/rng.hh"

#include <algorithm>
#include <cmath>

namespace canon
{

namespace
{

/** splitmix64: used only to expand the seed into generator state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::boolThreshold(double p)
{
    panicIf(!(p >= 0.0 && p <= 1.0),
            "Rng::boolThreshold: probability must be in [0,1], got ", p);
    // p * 2^53 is exact (a power-of-two scale), and at most 2^53.
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

std::vector<std::uint32_t>
Rng::sample(std::uint32_t n, std::uint32_t k)
{
    panicIf(k > n, "Rng::sample: k=", k, " exceeds n=", n);
    // Floyd's algorithm; sorted output for deterministic layouts.
    std::vector<std::uint32_t> chosen;
    chosen.reserve(k);
    for (std::uint32_t j = n - k; j < n; ++j) {
        auto t = static_cast<std::uint32_t>(nextBounded(j + 1));
        if (std::find(chosen.begin(), chosen.end(), t) == chosen.end())
            chosen.push_back(t);
        else
            chosen.push_back(j);
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

} // namespace canon
