#include "runner/aggregate.hh"

#include "core/config.hh"
#include "power/energy.hh"

namespace canon
{
namespace runner
{

namespace
{

/**
 * One architecture's row: its name, then its stats cells; Util% is
 * against its own @p macs lanes, and @p canon_cycles of 0 renders the
 * speedup column as "X" (no canon reference).
 */
std::vector<std::string>
statsCells(const CanonConfig &cfg, Arch arch,
           const ExecutionProfile &profile, std::uint64_t macs,
           double canon_cycles, bool probe_spad)
{
    const EnergyModel energy;
    const EnergyReport rep = energy.evaluate(profile, cfg.clockGhz);

    std::string perf = "X";
    if (canon_cycles > 0.0 && profile.cycles > 0)
        perf = Table::fmt(canon_cycles /
                          static_cast<double>(profile.cycles));

    std::vector<std::string> cells = {
        archName(arch),
        Table::fmtInt(profile.cycles),
        Table::fmt(rep.seconds() * 1e6, 3),
        Table::fmt(100.0 * profile.utilization(macs), 1),
        Table::fmtInt(profile.get(Activity::LaneMacs)),
        Table::fmtInt(profile.get(Activity::StateTransitions)),
        Table::fmt(rep.totalJoules() * 1e6, 3),
        Table::fmt(rep.watts() * 1e3, 2),
        perf,
    };

    if (probe_spad) {
        // Scratchpad occupancy probes exist only for profiles that
        // carry orchestrator counters (canon); baselines render "X".
        // The occupancy denominator is orchestrator-cycles (rows x
        // cycles): SpadOcc is mean resident rows per orchestrator.
        const bool probed = profile.has(Activity::SpadResidentSum);
        const double orch_cycles =
            static_cast<double>(profile.get(Activity::OrchCycles));
        if (probed && orch_cycles > 0.0) {
            cells.push_back(Table::fmt(
                static_cast<double>(
                    profile.get(Activity::SpadResidentSum)) /
                    orch_cycles,
                2));
            cells.push_back(Table::fmt(
                100.0 *
                    static_cast<double>(
                        profile.get(Activity::SpadCapCycles)) /
                    orch_cycles,
                1));
            const auto probes = profile.get(Activity::BufferSearches);
            cells.push_back(
                probes == 0
                    ? "X"
                    : Table::fmt(static_cast<double>(
                                     profile.get(Activity::TagCompares)) /
                                     static_cast<double>(probes),
                                 2));
        } else {
            cells.insert(cells.end(), {"X", "X", "X"});
        }
    }
    return cells;
}

} // namespace

const std::vector<std::string> &
statsHeader(bool probe_spad)
{
    static const std::vector<std::string> header = {
        "Cycles",      "Time(us)",   "Util%",
        "LaneMACs",    "StateXitions", "Energy(uJ)",
        "Power(mW)",   "Perf/Canon",
    };
    static const std::vector<std::string> probe_header = [] {
        std::vector<std::string> h = header;
        h.insert(h.end(), {"SpadOcc", "SpadCap%", "Cmp/Probe"});
        return h;
    }();
    return probe_spad ? probe_header : header;
}

std::vector<std::vector<std::string>>
archRows(const cli::Options &opt, const CaseResult &cases)
{
    const auto canon = cases.find(Arch::Canon);
    const double canon_cycles =
        canon == cases.end() ? 0.0
                             : static_cast<double>(canon->second.cycles);
    std::vector<std::vector<std::string>> rows;
    for (const auto &[arch, p] : cases) {
        // The Canon fabric's SIMD lanes; one MAC per baseline PE.
        const std::uint64_t macs = arch == Arch::Canon
                                       ? opt.fabric.numMacs()
                                       : p.peCount;
        rows.push_back(statsCells(opt.fabric, arch, p, macs, canon_cycles,
                                  opt.probeSpad));
    }
    return rows;
}

Table
sweepTable(const std::vector<ScenarioResult> &results)
{
    // The render-only probe flag is shared by every job of one
    // invocation; any row's options carry it.
    const bool probe_spad =
        !results.empty() && results.front().job.options.probeSpad;

    Table t("canonsim sweep");
    std::vector<std::string> header = {"Scenario", "Point", "Arch"};
    for (const auto &col : statsHeader(probe_spad))
        header.push_back(col);
    t.header(std::move(header));

    for (const auto &r : results) {
        const std::string scenario = r.job.options.workloadLabel();
        const std::string point =
            r.job.point.empty() ? "-" : r.job.point;

        if (!r.error.empty()) {
            std::vector<std::string> row = {scenario, point, "X"};
            for (std::size_t c = 0; c < statsHeader(probe_spad).size();
                 ++c)
                row.push_back("X");
            t.addRow(std::move(row));
            continue;
        }

        for (const auto &row : archRows(r.job.options, r.cases)) {
            std::vector<std::string> cells = {scenario, point};
            cells.insert(cells.end(), row.begin(), row.end());
            t.addRow(std::move(cells));
        }
    }
    return t;
}

} // namespace runner
} // namespace canon
