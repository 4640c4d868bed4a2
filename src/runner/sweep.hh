/**
 * @file
 * Scenario grids: a list of named axes, each with a list of string
 * values, whose cartesian product is the grid's point list. A Grid is
 * the one odometer behind every grid in the repository -- canonsim
 * sweeps (SweepSpec, which applies each point to a base Options) and
 * the figure benches' tables (bench::FigureSpec is a Grid).
 *
 * Expansion order is deterministic: axes vary like nested loops in
 * declaration order, the last-declared axis fastest. SweepSpec
 * validates axis values when the axis is added -- through the same
 * option applier the CLI parser uses -- so expansion itself cannot
 * fail and a malformed sweep is reported before any simulation
 * starts.
 *
 * Ownership and thread-safety: a Grid (and a SweepSpec) owns its axes
 * outright and expand() returns points and jobs that own copies of
 * their values, so a point list outlives the grid and may be consumed
 * from any thread. Mutation (axis/addAxis) is not synchronized --
 * build the grid on one thread, then share it const. The expansion
 * order is the anchor of the whole subsystem's determinism contract:
 * index i always denotes the same point, no matter how many workers
 * or shards later execute the list (see pool.hh and shard.hh).
 */

#ifndef CANON_RUNNER_SWEEP_HH
#define CANON_RUNNER_SWEEP_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "cli/options.hh"

namespace canon
{
namespace runner
{

/** One expanded grid point: one assignment of a value to each axis. */
struct GridPoint
{
    std::size_t index = 0; //!< position in expansion order
    /** (axis key, value) per axis, in axis declaration order. */
    std::vector<std::pair<std::string, std::string>> coords;
    /** Per-axis value index, aligned with coords. */
    std::vector<std::size_t> digits;
    std::string label; //!< "key=value key=value"; empty with no axes

    /** Value of axis @p key; fatal() when the axis does not exist. */
    const std::string &value(const std::string &key) const;

    /** value(key) parsed as double / int; fatal() on garbage. */
    double number(const std::string &key) const;
    int integer(const std::string &key) const;
};

/**
 * A grid of string-valued axes. With no axes it expands to a single
 * unlabeled point.
 */
class Grid
{
  public:
    /**
     * Add one axis; fatal() when @p values is empty or @p key is
     * already an axis. Returns *this.
     */
    Grid &axis(std::string key, std::vector<std::string> values);

    bool hasAxis(const std::string &key) const;

    /** Product of the axis lengths; 1 when no axis was declared. */
    std::size_t pointCount() const;

    /** Every point, in expansion order. */
    std::vector<GridPoint> expand() const;

  private:
    struct Axis
    {
        std::string key;
        std::vector<std::string> values;
    };

    std::vector<Axis> axes_;
};

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

/** A Grid over scenario option keys, expanded into SweepJobs. */
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

    /** Product of the axis lengths; 1 when no axis was declared. */
    std::size_t jobCount() const { return grid_.pointCount(); }

    /**
     * Expand @p base into the cartesian product of the axes, one
     * SweepJob per grid point. With no axes this returns a single
     * job carrying @p base unchanged.
     */
    std::vector<SweepJob> expand(const cli::Options &base) const;

  private:
    Grid grid_;
};

} // namespace runner
} // namespace canon

#endif // CANON_RUNNER_SWEEP_HH
