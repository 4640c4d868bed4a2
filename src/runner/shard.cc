#include "runner/shard.hh"

#include "common/parse.hh"

namespace canon
{
namespace runner
{

std::string
parseShard(const std::string &text, Shard &out)
{
    const std::string expects =
        "expects i/n with 0 <= i < n <= " + std::to_string(kMaxShards);

    const auto slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size())
        return "shard '" + text + "' " + expects;

    int index = 0, count = 0;
    if (!parseInt(text.substr(0, slash), index) ||
        !parseInt(text.substr(slash + 1), count))
        return "shard '" + text + "' " + expects;
    if (count < 1 || count > kMaxShards || index < 0 ||
        index >= count)
        return "shard '" + text + "' " + expects;

    out.index = index;
    out.count = count;
    return {};
}

std::pair<std::size_t, std::size_t>
shardRange(const Shard &shard, std::size_t total)
{
    if (shard.whole())
        return {0, total};
    const auto i = static_cast<std::size_t>(shard.index);
    const auto n = static_cast<std::size_t>(shard.count);
    return {total * i / n, total * (i + 1) / n};
}

} // namespace runner
} // namespace canon
