/**
 * @file
 * Declarative figure grids for the per-figure bench binaries.
 *
 * Every figure of the paper's evaluation is a grid of scenarios. This
 * layer lets a bench binary *declare* that grid -- a FigureSpec axis
 * list per table, exactly the SweepSpec contract of src/runner/ --
 * and submit every grid point as one cached job to a
 * canon::engine::Engine (which owns the worker pool and the result
 * cache), instead of hand-rolling a serial scenario loop. One
 * FigureBench holds the binary's tables; its job list is the
 * concatenation of every table's expanded grid, which gives all 13
 * binaries the same CLI for free:
 *
 *   bench_figNN [--jobs N] [--shard I/N] [--cache-dir D [--cache M]]
 *
 * Determinism contract (the same one canonsim's sweep mode obeys):
 *  - Grid expansion order is fixed: axes vary like nested loops in
 *    declaration order, the last-declared axis fastest; tables expand
 *    in declaration order.
 *  - Results are collected at their job index, so the rendered tables
 *    and CSVs are byte-identical for every --jobs value.
 *  - --shard I/N owns a contiguous expansion-order slice of the job
 *    list (runner::shardRange); shard 0 writes each CSV's header, so
 *    concatenating the shards' CSV files in shard order reproduces
 *    the unsharded file byte for byte. A job -- one grid point --
 *    never splits across shards, so every emitted row stays whole.
 *
 * Thread-safety: emit() is called concurrently from the pool's
 * workers, one call per grid point. An emit function must build its
 * own simulator state (runners, RNGs seeded from the point) and must
 * not write anything shared; every converted figure derives its seeds
 * from the grid point, never from execution order.
 */

#ifndef CANON_BENCH_FIGURE_SPEC_HH
#define CANON_BENCH_FIGURE_SPEC_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "engine/common_flags.hh"

namespace canon
{
namespace bench
{

/**
 * One expanded grid point: the axis assignment that names one unit of
 * a figure's work (usually one table row).
 */
struct FigurePoint
{
    std::size_t index = 0; //!< position in the table's expansion order
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
 * A declarative axis grid. With no axes it expands to a single
 * unlabeled point -- the whole-table-as-one-job case, used when a
 * table's rows share state (a common RNG stream, a cross-row
 * aggregate) and must be emitted together.
 */
class FigureSpec
{
  public:
    /** Add one axis; values must be nonempty. Returns *this. */
    FigureSpec &axis(std::string key, std::vector<std::string> values);

    std::size_t axisCount() const { return axes_.size(); }

    /** Product of the axis lengths; 1 when no axis was declared. */
    std::size_t pointCount() const;

    /**
     * The full grid in expansion order: nested loops over the axes in
     * declaration order, the last-declared axis fastest.
     */
    std::vector<FigurePoint> expand() const;

  private:
    struct Axis
    {
        std::string key;
        std::vector<std::string> values;
    };

    std::vector<Axis> axes_;
};

/** The rows one grid point contributes to its table, in order. */
using FigureRows = std::vector<std::vector<std::string>>;

/**
 * One output table of a figure bench: title/header/CSV name, the row
 * grid, and the emit function that produces the rows of one grid
 * point. Tables own their emit closures; a FigureBench owns its
 * tables.
 */
struct FigureTable
{
    std::string title;
    std::vector<std::string> header;
    std::string csvName; //!< empty: print only, no CSV file
    FigureSpec grid;     //!< no axes = the whole table is one job
    std::function<FigureRows(const FigurePoint &)> emit;
    std::string note; //!< commentary printed after the table
};

/** Execution options shared by every figure bench binary. */
struct BenchOptions
{
    /**
     * The --jobs/--shard/--cache-dir/--cache flags, parsed by the
     * grammar shared with canonsim (engine::parseCommonFlag).
     * common.jobs of 0 means the binary's declared default; grid
     * points already in the cache render without executing their
     * emit function, so a warm rerun regenerates byte-identical CSVs
     * with zero simulation jobs.
     */
    engine::CommonFlags common;

    bool showHelp = false;
};

/**
 * A figure bench binary: named tables executed over one shared
 * worker pool. Build it, add() the tables, hand main() the argv.
 */
class FigureBench
{
  public:
    explicit FigureBench(std::string name) : name_(std::move(name)) {}

    /**
     * Worker-thread default when --jobs is absent. 0 (the initial
     * value) means hardware concurrency; wall-clock-timing benches
     * set 1 so measurements do not contend by default.
     */
    FigureBench &defaultJobs(int jobs)
    {
        default_jobs_ = jobs;
        return *this;
    }

    FigureBench &add(FigureTable table);

    const std::string &name() const { return name_; }

    /** Total jobs across every table's grid. */
    std::size_t jobCount() const;

    /**
     * Submit this bench's shard of the job list to a canon::engine
     * Engine (Engine::runJobs, one cached job per grid point) and
     * render every table (and CSV) in declaration order. Returns a
     * process exit code: 0 on success, 1 when a job failed (the
     * lowest-indexed failure is reported) or an output could not be
     * written.
     */
    int run(const BenchOptions &opt, std::ostream &out,
            std::ostream &err) const;

    /** Full binary entry point: parse argv, run, report. */
    int main(int argc, char **argv) const;

  private:
    std::string name_;
    int default_jobs_ = 0;
    std::vector<FigureTable> tables_;
};

} // namespace bench
} // namespace canon

#endif // CANON_BENCH_FIGURE_SPEC_HH
