/**
 * @file
 * The observability report: everything one Engine submission observed,
 * frozen into a value and rendered into the three machine-readable
 * outputs -- the sampled time-series CSV (--series-out), the Chrome
 * trace-event JSON (--trace-out), and the structured per-scenario
 * stats dump (--stats-json).
 *
 * A ResultSet carries an ObsReport so canonsim, the 13 figure benches,
 * and embedders all get the same outputs from the same flags without
 * re-implementing any formatting. Every emitted byte is a function of
 * simulated behaviour and the scenario expansion only: the trace
 * timeline is virtual (1 cycle = 1 us, scenarios serialized in
 * expansion order), so all three artifacts are byte-identical across
 * --jobs values and tick-order shuffle seeds.
 */

#ifndef CANON_ENGINE_OBS_REPORT_HH
#define CANON_ENGINE_OBS_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "cache/store.hh"
#include "obs/collector.hh"
#include "runner/pool.hh"

namespace canon
{
namespace engine
{

class ObsReport
{
  public:
    /** A default report is disabled: every writer is a no-op. */
    ObsReport() = default;

    /**
     * A report over @p scenarios in expansion order (kept only when
     * @p opt enables observation); cache totals are snapshotted from
     * @p store when present. The writers read each result's global
     * index (job.index, carried through sharding), point label,
     * error, profiles and observations; an Engine run passes its
     * ScenarioResults, a figure bench one per grid point.
     */
    ObsReport(const obs::ObsOptions &opt,
              std::vector<runner::ScenarioResult> scenarios,
              const cache::ResultStore *store);

    bool enabled() const { return options_.enabled(); }
    const obs::ObsOptions &options() const { return options_; }

    /** The sampled time series as one long-form CSV. */
    void writeSeriesCsv(std::ostream &os) const;

    /** The Chrome trace-event JSON document. */
    void writeTrace(std::ostream &os) const;

    /** The canon.stats.v2 structured stats dump. */
    void writeStatsJson(std::ostream &os) const;

    /** True when any observed run recorded cycle accounting. */
    bool hasAccounting() const;

    /**
     * Render the --cycle-accounting breakdown: per observed run, one
     * table with a fabric rollup row plus per-component rows, each
     * category as absolute cycles and percent of the component's
     * observed cycles.
     */
    void writeAccounting(std::ostream &os) const;

    /**
     * Write every output file the options request. Returns an empty
     * string on success, otherwise the first error message.
     */
    std::string writeOutputs() const;

  private:
    obs::ObsOptions options_;
    std::vector<runner::ScenarioResult> scenarios_;
    bool haveCacheTotals_ = false;
    cache::CacheStats cacheTotals_;
};

} // namespace engine
} // namespace canon

#endif // CANON_ENGINE_OBS_REPORT_HH
