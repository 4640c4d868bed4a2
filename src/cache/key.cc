#include "cache/key.hh"

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

/** Append @p v as 16 lower-case hex digits. */
void
appendHex64(std::string &out, std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    for (int shift = 60; shift >= 0; shift -= 4)
        out += digits[(v >> shift) & 0xf];
}

/** Append the requested architectures' names, in name order. */
void
appendArchs(std::string &out, const ArchSet &archs)
{
    const char *sep = "";
    for (const Arch a : kArchesByName) {
        if (archs.contains(a)) {
            out.append(sep).append(archName(a));
            sep = ",";
        }
    }
}

} // namespace

ScenarioKey::ScenarioKey(std::string text) : canonical(std::move(text))
{
    // Two independent passes (forward, and backward over the same
    // text) give 128 bits; the store verifies the canonical text
    // anyway, so this only has to make accidental file-name
    // collisions vanishingly rare.
    digest.reserve(32);
    appendHex64(digest, fnv1a64(canonical.begin(), canonical.end()));
    appendHex64(digest, fnv1a64(canonical.rbegin(), canonical.rend()));
}

ScenarioKey
scenarioKey(const cli::Options &opt)
{
    std::string text = "canonsim schema=";
    text += std::to_string(kSchemaVersion);
    text += " archs=";
    appendArchs(text, opt.archs);
    text += cli::keyedOptionText(opt);
    return ScenarioKey(std::move(text));
}

ScenarioKey
figureKey(const std::string &bench, const std::string &table,
          const std::string &point)
{
    std::string text = "figure schema=";
    text += std::to_string(kSchemaVersion);
    text.append(" bench=").append(bench);
    text.append(" table=").append(table);
    text.append(" point=").append(point);
    return ScenarioKey(std::move(text));
}

} // namespace cache
} // namespace canon
