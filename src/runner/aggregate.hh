/**
 * @file
 * Sweep result aggregation: collects the per-scenario outcomes of a
 * pool run and renders them as one combined table (one row per
 * scenario x architecture) suitable for printing and CSV export.
 * Row order follows job expansion order, so sweep output is
 * reproducible byte-for-byte across worker counts; for a sharded run
 * the results are a contiguous expansion-order slice and the
 * rendered rows concatenate across shards in shard order.
 *
 * Thread-safety: the helpers below are pure functions of their
 * arguments; everything here runs single-threaded after the pool has
 * joined its workers. Rendering never re-runs a scenario.
 */

#ifndef CANON_RUNNER_AGGREGATE_HH
#define CANON_RUNNER_AGGREGATE_HH

#include <string>
#include <vector>

#include "common/table.hh"
#include "core/config.hh"
#include "power/profile.hh"
#include "runner/pool.hh"

namespace canon
{
namespace runner
{

/**
 * The per-architecture stats cells (cycles, time, utilization, MACs,
 * transitions, energy, power, speedup-vs-canon) shared by the
 * single-scenario table and the combined sweep table. @p canon_cycles
 * of 0 renders the speedup column as "X" (no canon reference).
 * @p probe_spad appends the scratchpad occupancy probe columns (mean
 * resident rows, % cycles at the resident cap, tag compares per
 * buffer probe); profiles without orchestrator counters render "X".
 */
std::vector<std::string> statsCells(const CanonConfig &cfg,
                                    const ExecutionProfile &profile,
                                    double canon_cycles,
                                    bool probe_spad = false);

/** Header labels matching statsCells, in the same order. */
const std::vector<std::string> &statsHeader(bool probe_spad = false);

/**
 * Architectures present in @p cases that were requested by @p opt,
 * in the paper's display order (canon first, then the baselines).
 * Empty opt.archs means canon only, per the Options contract.
 */
std::vector<std::string> orderedArchs(const cli::Options &opt,
                                      const CaseResult &cases);

/**
 * The combined sweep table (engine::ResultSet::sweepTable): a row per
 * scenario x architecture, in job order, each scenario's archs in
 * display order. Failed scenarios render one row with "X" stats so
 * the grid shape is preserved.
 */
Table sweepTable(const std::vector<ScenarioResult> &results);

} // namespace runner
} // namespace canon

#endif // CANON_RUNNER_AGGREGATE_HH
