#include "cache/key.hh"

#include <algorithm>
#include <cstdint>

namespace canon
{
namespace cache
{

namespace
{

/** FNV-1a 64 over the chars [first, last). */
template <typename It>
std::uint64_t
fnv1a64(It first, It last)
{
    constexpr std::uint64_t prime = 1099511628211ull;
    std::uint64_t h = 14695981039346656037ull;
    for (; first != last; ++first) {
        h ^= static_cast<unsigned char>(*first);
        h *= prime;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

/** Requested architectures, sorted and deduplicated; empty = canon. */
std::string
canonicalArchs(const cli::Options &opt)
{
    std::vector<std::string> archs = opt.archs;
    if (archs.empty())
        archs.push_back("canon"); // the Options contract
    std::sort(archs.begin(), archs.end());
    archs.erase(std::unique(archs.begin(), archs.end()), archs.end());
    std::string out;
    for (const auto &a : archs) {
        if (!out.empty())
            out += ",";
        out += a;
    }
    return out;
}

} // namespace

std::string
ScenarioKey::digest() const
{
    // Two independent passes (forward, and backward over the same
    // text) give 128 bits; the store verifies the canonical text
    // anyway, so this only has to make accidental file-name
    // collisions vanishingly rare.
    return hex64(fnv1a64(canonical.begin(), canonical.end())) +
           hex64(fnv1a64(canonical.rbegin(), canonical.rend()));
}

ScenarioKey
scenarioKey(const cli::Options &opt)
{
    ScenarioKey key;
    key.canonical = "canonsim schema=" + std::to_string(kSchemaVersion);
    key.canonical += " archs=" + canonicalArchs(opt);
    key.canonical += cli::keyedOptionText(opt);
    return key;
}

ScenarioKey
figureKey(const std::string &bench, const std::string &table,
          const std::string &point)
{
    ScenarioKey key;
    key.canonical = "figure schema=" + std::to_string(kSchemaVersion) +
                    " bench=" + bench + " table=" + table +
                    " point=" + point;
    return key;
}

} // namespace cache
} // namespace canon
