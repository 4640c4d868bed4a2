/**
 * @file
 * Sweep specification: a list of named axes (workload parameters or
 * fabric dimensions, each with a value list) whose cartesian product
 * expands a base Options into one job per scenario.
 *
 * Axis values are validated when the axis is added -- through the
 * same option applier the CLI parser uses -- so expansion itself
 * cannot fail and a malformed sweep is reported before any simulation
 * starts. Expansion order is deterministic: axes vary like nested
 * loops in declaration order, the last-declared axis fastest.
 *
 * Ownership and thread-safety: a SweepSpec owns its axes outright
 * and expand() returns jobs that own copies of their Options, so a
 * job list outlives the spec and may be consumed from any thread.
 * Mutation (addAxis) is not synchronized -- build the spec on one
 * thread, then share it const. The expansion order is the anchor of
 * the whole subsystem's determinism contract: job index i always
 * denotes the same scenario, no matter how many workers or shards
 * later execute the list (see pool.hh and shard.hh).
 */

#ifndef CANON_RUNNER_SWEEP_HH
#define CANON_RUNNER_SWEEP_HH

#include <cstddef>
#include <string>
#include <vector>

#include "cli/options.hh"

namespace canon
{
namespace runner
{

/**
 * One scenario of a sweep: the fully applied options plus a
 * "key=value key=value" point label naming the axis assignment that
 * produced it (empty for the degenerate no-axis sweep).
 */
struct SweepJob
{
    std::size_t index = 0; //!< position in expansion order
    cli::Options options;
    std::string point; //!< axis assignment, e.g. "sparsity=0.5 rows=4"
};

class SweepSpec
{
  public:
    /**
     * Add one axis from its key and comma-separated value list.
     * Every value is validated immediately against the CLI option
     * grammar. Returns an empty string on success, otherwise the
     * error message (unknown key, duplicate axis, malformed value).
     */
    std::string addAxis(const std::string &key,
                        const std::string &values);

    /** Number of declared axes. */
    std::size_t axisCount() const { return axes_.size(); }

    /** Product of the axis lengths; 1 when no axis was declared. */
    std::size_t jobCount() const;

    /**
     * Expand @p base into the cartesian product of the axes, one
     * SweepJob per combination. With no axes this returns a single
     * job carrying @p base unchanged.
     */
    std::vector<SweepJob> expand(const cli::Options &base) const;

  private:
    struct Axis
    {
        std::string key;
        std::vector<std::string> values;
    };

    std::vector<Axis> axes_;
};

} // namespace runner
} // namespace canon

#endif // CANON_RUNNER_SWEEP_HH
