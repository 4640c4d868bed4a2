/**
 * @file
 * Declarative figure grids for the per-figure bench binaries.
 *
 * Every figure of the paper's evaluation is a grid of scenarios. This
 * layer lets a bench binary *declare* that grid -- a FigureSpec axis
 * list per table, the runner::Grid that canonsim's sweeps expand --
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
#include "runner/sweep.hh"

namespace canon
{
namespace bench
{

/** A figure table's row grid and its expanded points. */
using FigureSpec = runner::Grid;
using FigurePoint = runner::GridPoint;

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
    /**
     * The row grid. No axes makes the whole table one job: for rows
     * that share state (a common RNG stream, a cross-row aggregate)
     * and must be emitted together.
     */
    FigureSpec grid;
    std::function<FigureRows(const FigurePoint &)> emit;
    std::string note; //!< commentary printed after the table
};

/** Execution options shared by every figure bench binary. */
struct BenchOptions
{
    /**
     * The --jobs/--shard/--cache-dir/--cache flags, parsed by the
     * rows shared with canonsim (engine::commonFlags()).
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
     * Mark the cells as wall-clock measurements. The bench then runs
     * on one worker unless --jobs says otherwise, so timing rows do
     * not contend, and --cache-dir is a usage error, so no run
     * replays another run's timings. Other benches default to
     * hardware concurrency.
     */
    FigureBench &wallClock()
    {
        wall_clock_ = true;
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
     * written, 2 when a wall-clock bench is given a cache.
     */
    int run(const BenchOptions &opt, std::ostream &out,
            std::ostream &err) const;

    /** Full binary entry point: parse argv, run, report. */
    int main(int argc, char **argv) const;

  private:
    std::string name_;
    bool wall_clock_ = false;
    std::vector<FigureTable> tables_;
};

} // namespace bench
} // namespace canon

#endif // CANON_BENCH_FIGURE_SPEC_HH
