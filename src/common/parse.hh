/**
 * @file
 * The one integer parser behind every option, protocol field and
 * payload decoder: the whole text must be one base-10 integer that
 * fits the target type.
 */

#ifndef CANON_COMMON_PARSE_HH
#define CANON_COMMON_PARSE_HH

#include <charconv>
#include <string_view>

namespace canon
{

/**
 * Parse all of @p text as a base-10 T. On empty text, any character
 * outside the number (a leading '+' or space, a sign on an unsigned
 * T, a trailing suffix) or a value T cannot hold, return false and
 * leave @p out untouched.
 */
template <typename T>
bool
parseInt(std::string_view text, T &out)
{
    T v{};
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || ptr != last)
        return false;
    out = v;
    return true;
}

} // namespace canon

#endif // CANON_COMMON_PARSE_HH
