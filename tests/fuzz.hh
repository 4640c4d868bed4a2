/**
 * @file
 * Seeded fuzz inputs for the decoders of untrusted bytes: random byte
 * soup, every truncation and a random single-byte mutation at every
 * offset of a valid payload, and the payload with each digit run
 * widened to 19-25 digits (around and past the u64 range).
 */

#ifndef CANON_TESTS_FUZZ_HH
#define CANON_TESTS_FUZZ_HH

#include <cctype>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace canon
{

inline std::vector<std::string>
fuzzInputs(const std::string &valid, std::uint64_t seed)
{
    Rng rng(seed);
    auto randomDigits = [&](std::size_t n) {
        std::string d(n, '0');
        for (char &c : d)
            c = static_cast<char>('0' + rng.nextBounded(10));
        d[0] = static_cast<char>('1' + rng.nextBounded(9));
        return d;
    };
    auto isDigit = [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
    };

    std::vector<std::string> out;
    for (int round = 0; round < 200; ++round) {
        std::string soup(rng.nextBounded(512) + 1, '\0');
        for (char &c : soup)
            c = static_cast<char>(rng.nextBounded(256));
        out.push_back(std::move(soup));
    }
    for (std::size_t i = 0; i < valid.size(); ++i) {
        out.push_back(valid.substr(0, i));
        std::string mutated = valid;
        mutated[i] = static_cast<char>(rng.nextBounded(256));
        out.push_back(std::move(mutated));
    }
    for (std::size_t i = 0; i < valid.size(); ++i) {
        if (!isDigit(valid[i]) || (i > 0 && isDigit(valid[i - 1])))
            continue;
        std::size_t end = i;
        while (end < valid.size() && isDigit(valid[end]))
            ++end;
        out.push_back(valid.substr(0, i) +
                      randomDigits(19 + rng.nextBounded(7)) +
                      valid.substr(end));
    }
    return out;
}

} // namespace canon

#endif // CANON_TESTS_FUZZ_HH
