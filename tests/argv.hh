/**
 * @file
 * Test helpers for the shared command-line grammar: parse an argv
 * over the common flags alone, and look a common row up by name.
 */

#ifndef CANON_TESTS_ARGV_HH
#define CANON_TESTS_ARGV_HH

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "engine/common_flags.hh"

namespace canon
{

/** Apply @p args to @p flags over the common rows; the first error. */
inline std::string
parseCommon(const std::vector<std::string> &args,
            engine::CommonFlags &flags)
{
    bool help = false;
    return engine::FlagSet(help)
        .add(engine::commonFlags(), flags)
        .parse(args);
}

/** The common row named @p name, or null. */
inline const engine::Flag<engine::CommonFlags> *
commonRow(std::string_view name)
{
    const auto rows = engine::commonFlags();
    const auto it = std::ranges::find_if(
        rows, [name](const auto &row) { return name == row.name; });
    return it == rows.end() ? nullptr : &*it;
}

} // namespace canon

#endif // CANON_TESTS_ARGV_HH
