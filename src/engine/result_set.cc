#include "engine/result_set.hh"

#include "common/logging.hh"

namespace canon
{
namespace engine
{

Table
scenarioStatsTable(const cli::Options &opt, const CaseResult &cases)
{
    Table table("canonsim: " + opt.workloadLabel());
    std::vector<std::string> header = {"Arch"};
    for (const auto &col : runner::statsHeader(opt.probeSpad))
        header.push_back(col);
    table.header(std::move(header));

    for (auto &row : runner::archRows(opt, cases)) {
        row.cells.insert(row.cells.begin(), row.arch);
        table.addRow(std::move(row.cells));
    }
    return table;
}

std::size_t
ResultSet::failureCount() const
{
    std::size_t n = 0;
    for (const auto &r : results_)
        if (!r.error.empty())
            ++n;
    return n;
}

std::size_t
ResultSet::cancelledCount() const
{
    std::size_t n = 0;
    for (const auto &r : results_)
        if (r.cancelled())
            ++n;
    return n;
}

Table
ResultSet::statsTable() const
{
    fatalIf(results_.empty(),
            "ResultSet::statsTable on an empty result set");
    const runner::ScenarioResult &r = results_.front();
    return scenarioStatsTable(r.job.options, r.cases);
}

Table
ResultSet::sweepTable() const
{
    return runner::sweepTable(results_);
}

} // namespace engine
} // namespace canon
