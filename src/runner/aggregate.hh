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
#include "power/profile.hh"
#include "runner/pool.hh"

namespace canon
{
namespace runner
{

/**
 * The stats column labels: cycles, time, utilization, MACs,
 * transitions, energy, power, speedup-vs-canon, and with
 * @p probe_spad the scratchpad occupancy probe columns (mean
 * resident rows, % cycles at the resident cap, tag compares per
 * buffer probe).
 */
const std::vector<std::string> &statsHeader(bool probe_spad = false);

/**
 * The stats rows of one scenario: a row per entry of @p cases, in
 * display order, the architecture's name and then the statsHeader()
 * cells, rendered against @p opt's fabric and clock, with the speedup
 * column relative to the canon case ("X" without one) and the probe
 * columns when opt.probeSpad is set (profiles without orchestrator
 * counters render "X" there). The single-scenario table, the sweep
 * table and canond's Result frames all render through this.
 */
std::vector<std::vector<std::string>>
archRows(const cli::Options &opt, const CaseResult &cases);

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
