/**
 * @file
 * Process-level splitting of an expanded job list: `--shard i/n`
 * assigns each process one contiguous slice of the jobs so a grid can
 * fan out across machines, not just across one host's threads.
 *
 * Ownership and ordering guarantees:
 *  - Shards partition [0, total): the union of all n slices is the
 *    full job list and the slices are pairwise disjoint, so every job
 *    runs exactly once across the shard set.
 *  - Slices are contiguous and follow job-expansion order, so
 *    concatenating per-shard output in shard order reproduces the
 *    serial output byte for byte (the CSV header is emitted by shard
 *    0 only).
 *  - Slice sizes differ by at most one job; when total < n some
 *    shards own the empty slice, which is legal and yields empty
 *    output.
 *
 * The type is a plain value with no dependencies on the CLI layer so
 * both canonsim (src/cli) and the figure benches (bench/) can share
 * it.
 */

#ifndef CANON_RUNNER_SHARD_HH
#define CANON_RUNNER_SHARD_HH

#include <cstddef>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace canon
{
namespace runner
{

/** Hard cap on the shard count; far beyond any realistic CI fan-out. */
inline constexpr int kMaxShards = 4096;

/** One process's share of a job list. The default is the whole list. */
struct Shard
{
    int index = 0; //!< this process's slice, in [0, count)
    int count = 1; //!< total number of slices; 1 means no sharding

    /** True when this shard owns every job (the degenerate 0/1). */
    bool whole() const { return count <= 1; }

    /** The "i/n" spelling, for labels and error messages. */
    std::string label() const
    {
        return std::to_string(index) + "/" + std::to_string(count);
    }
};

/**
 * Parse the "i/n" spelling (e.g. "0/4"). Requires 0 <= i < n and
 * 1 <= n <= kMaxShards. Returns an empty string on success, otherwise
 * the error message; @p out is only written on success.
 */
std::string parseShard(const std::string &text, Shard &out);

/**
 * The half-open job-index range [first, second) owned by @p shard in
 * a list of @p total jobs: [total*i/n, total*(i+1)/n). Evaluating it
 * for every i covers [0, total) exactly once, in order.
 */
std::pair<std::size_t, std::size_t> shardRange(const Shard &shard,
                                               std::size_t total);

/** The shardRange() slice of @p all that @p shard owns. */
template <typename T>
std::vector<T>
shardSlice(const Shard &shard, std::vector<T> all)
{
    if (shard.whole())
        return all;
    const auto [first, last] = shardRange(shard, all.size());
    return std::vector<T>(
        std::make_move_iterator(all.begin() +
                                static_cast<std::ptrdiff_t>(first)),
        std::make_move_iterator(all.begin() +
                                static_cast<std::ptrdiff_t>(last)));
}

} // namespace runner
} // namespace canon

#endif // CANON_RUNNER_SHARD_HH
