/**
 * @file
 * The canonsim execution driver: a thin adapter that turns validated
 * Options into an engine::ScenarioRequest, submits it to a
 * canon::engine::Engine (which owns the worker pool, the result
 * cache, and the arch registry), and renders the returned ResultSet
 * as the classic stats tables. --dry-run renders the engine's plan
 * (scenario list, cache keys, hit/miss forecast) instead of running.
 *
 * Every invocation is a sweep: the --sweep axes expand into a job
 * list (the cartesian product; no axes means one job) executed
 * across --jobs worker threads. All output goes through
 * caller-supplied streams, so tests can make assertions on both the
 * raw profiles and the rendered text.
 */

#ifndef CANON_CLI_DRIVER_HH
#define CANON_CLI_DRIVER_HH

#include <iosfwd>

#include "cli/options.hh"

namespace canon
{
namespace cli
{

/**
 * Full driver: expand the sweep (a plain run is the one-job
 * degenerate case), execute it on the worker pool, print the stats
 * table(s) to @p out, optionally dump CSV. Returns a process exit
 * code: 0 on success, 1 when a scenario could not run, 2 for a
 * malformed sweep axis.
 */
int runScenario(const Options &opt, std::ostream &out,
                std::ostream &err);

} // namespace cli
} // namespace canon

#endif // CANON_CLI_DRIVER_HH
