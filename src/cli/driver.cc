#include "cli/driver.hh"

#include <ostream>

#include "common/table.hh"
#include "engine/engine.hh"

namespace canon
{
namespace cli
{

namespace
{

/** Render the classic single-scenario report (the no-axis sweep). */
int
renderSingle(const Options &opt, const engine::ResultSet &rs,
             std::ostream &out, std::ostream &err)
{
    out << opt.fabric.describe() << "\n\n";

    const runner::ScenarioResult &result = rs.scenarios().front();
    if (!result.error.empty()) {
        if (result.error == runner::kNoArchError)
            err << "canonsim: no requested architecture can execute '"
                << opt.workloadLabel() << "'\n";
        else
            err << "canonsim: " << result.error << "\n";
        return 1;
    }

    Table table = rs.statsTable();
    table.print(out);
    if (rs.obs().hasAccounting())
        rs.obs().writeAccounting(out);
    if (!rs.cacheStatsLine().empty())
        out << "\n" << rs.cacheStatsLine() << "\n";
    if (!opt.csvPath.empty()) {
        if (!table.writeCsv(opt.csvPath)) {
            err << "canonsim: cannot write CSV to " << opt.csvPath
                << "\n";
            return 1;
        }
        out << "\nCSV written to " << opt.csvPath << "\n";
    }
    return 0;
}

/** Render the combined sweep report. */
int
renderSweep(const Options &opt, const engine::ResultSet &rs,
            std::ostream &out, std::ostream &err)
{
    const std::size_t count = rs.size();

    // Deliberately silent about --jobs: sweep output must be
    // byte-identical no matter how many workers executed it. The
    // shard, by contrast, changes which scenarios this process owns,
    // so it is part of the report.
    out << "canonsim sweep: ";
    if (rs.shard().whole())
        out << count << " scenario" << (count == 1 ? "" : "s")
            << "\n";
    else
        out << count << " of " << rs.totalJobs() << " scenario"
            << (rs.totalJobs() == 1 ? "" : "s") << " (shard "
            << rs.shard().label() << ")\n";

    Table table = rs.sweepTable();
    table.print(out);
    if (rs.obs().hasAccounting())
        rs.obs().writeAccounting(out);
    if (!rs.cacheStatsLine().empty())
        out << "\n" << rs.cacheStatsLine() << "\n";

    for (const auto &r : rs.scenarios())
        if (!r.error.empty())
            err << "canonsim: scenario '" << r.job.point
                << "' failed: " << r.error << "\n";

    if (!opt.csvPath.empty()) {
        // Shard 0 owns the CSV header; concatenating the shard files
        // in order then reproduces the unsharded CSV byte for byte.
        if (!table.writeCsv(opt.csvPath, rs.shard().index == 0)) {
            err << "canonsim: cannot write CSV to " << opt.csvPath
                << "\n";
            return 1;
        }
        out << "\nCSV written to " << opt.csvPath << "\n";
    }
    return rs.failureCount() == 0 ? 0 : 1;
}

/**
 * Render the --dry-run report: the sharded scenario list with each
 * scenario's cache digest and hit/miss forecast. Nothing simulates;
 * the forecast line's "simulation jobs to execute" is what a real
 * run's "simulation jobs executed" would report.
 */
int
renderDryRun(const engine::ScenarioRequest &req, engine::Engine &eng,
             std::ostream &out)
{
    const std::vector<engine::ScenarioPlan> plans = eng.plan(req);
    const std::size_t total = req.jobCount();

    out << "canonsim dry-run: ";
    if (req.options().common.shard.whole())
        out << plans.size() << " scenario"
            << (plans.size() == 1 ? "" : "s") << "\n";
    else
        out << plans.size() << " of " << total << " scenario"
            << (total == 1 ? "" : "s") << " (shard "
            << req.options().common.shard.label() << ")\n";

    Table table("canonsim dry-run");
    table.header({"Scenario", "Point", "CacheKey", "Forecast"});
    std::size_t hits = 0, misses = 0;
    for (const auto &p : plans) {
        hits += p.forecast == engine::ScenarioPlan::Forecast::Hit;
        misses += p.forecast != engine::ScenarioPlan::Forecast::Hit;
        table.addRow({p.job.options.workloadLabel(),
                      p.job.point.empty() ? "-" : p.job.point,
                      p.key.digest(),
                      engine::forecastName(p.forecast)});
    }
    table.print(out);

    if (eng.store())
        out << "\ndry-run forecast: " << hits << " hits, " << misses
            << " misses; simulation jobs to execute: " << misses
            << "\n";
    return 0;
}

} // namespace

int
runScenario(const Options &opt, std::ostream &out, std::ostream &err)
{
    engine::ScenarioRequest req =
        engine::ScenarioRequest::fromOptions(opt);
    if (!req.validate()) {
        // Same shape as main.cc's parse failure: error, blank line,
        // usage, exit 2.
        err << "canonsim: " << req.error() << "\n\n" << usageText();
        return 2;
    }

    // Single runs warn -- once per offending flag, on stderr, without
    // failing -- when an explicitly set option is ignored by the
    // selected workload or model (`--nm` with spmm, `--window` with
    // gemm, `--sparsity` with a window-attention model, ...).
    for (const auto &note : req.warnings())
        err << "canonsim: warning: " << note << "\n";

    engine::Engine eng(engine::makeEngineConfig(opt.common, 1));
    if (std::string perr = eng.prepare(); !perr.empty()) {
        err << "canonsim: " << perr << "\n";
        return 1;
    }

    if (opt.dryRun)
        return renderDryRun(req, eng, out);

    engine::ResultSet rs = eng.run(req);

    // Observability artifacts write before the report renders so a
    // render failure cannot leave a partial series/trace behind.
    if (rs.obs().enabled()) {
        if (std::string oerr = rs.obs().writeOutputs(); !oerr.empty()) {
            err << "canonsim: " << oerr << "\n";
            return 1;
        }
    }

    // A sharded run always uses the sweep report, even for a single
    // scenario: its slice may be empty and its CSV must obey the
    // shard concatenation contract.
    if (rs.single())
        return renderSingle(opt, rs, out, err);
    return renderSweep(opt, rs, out, err);
}

} // namespace cli
} // namespace canon
