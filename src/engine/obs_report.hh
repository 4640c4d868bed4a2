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

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/store.hh"
#include "obs/collector.hh"
#include "runner/pool.hh"

namespace canon
{
namespace engine
{

/** One scenario's observation record, in expansion order. */
struct ObsScenario
{
    std::size_t index = 0; //!< global expansion index
    std::string point;     //!< sweep point label (may be empty)
    std::string error;     //!< scenario failure, if any
    /** Requested archs present in the result, in display order. */
    std::vector<std::string> archs;
    /** Per-arch execution profiles (keyed like archs). */
    CaseResult cases;
    std::shared_ptr<const obs::ScenarioObs> obs; //!< null when off
};

class ObsReport
{
  public:
    /** A default report is disabled: every writer is a no-op. */
    ObsReport() = default;

    /**
     * A report over @p scenarios (kept only when @p opt enables
     * observation); cache totals are snapshotted from @p store when
     * present. The figure benches build theirs this way, one
     * scenario per grid point.
     */
    ObsReport(const obs::ObsOptions &opt,
              std::vector<ObsScenario> scenarios,
              const cache::ResultStore *store);

    bool enabled() const { return options_.enabled(); }
    const obs::ObsOptions &options() const { return options_; }
    const std::vector<ObsScenario> &scenarios() const
    {
        return scenarios_;
    }

    /**
     * Build from a finished scenario run. Scenario indices/points/
     * archs come from the results (which carry their global expansion
     * indices through sharding).
     */
    static ObsReport
    build(const obs::ObsOptions &opt,
          const std::vector<runner::ScenarioResult> &results,
          const cache::ResultStore *store);

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
    std::vector<ObsScenario> scenarios_;
    bool haveCacheTotals_ = false;
    cache::CacheStats cacheTotals_;
};

} // namespace engine
} // namespace canon

#endif // CANON_ENGINE_OBS_REPORT_HH
