/**
 * @file
 * Shared helpers for the per-figure bench binaries: the common
 * --jobs/--shard CLI, the Figure 12/13 workload matrix, normalization
 * against Canon, and pretty-printing conventions ("X" marks
 * architectures that cannot run a workload, exactly as in the paper's
 * figures).
 */

#ifndef CANON_BENCH_BENCH_UTIL_HH
#define CANON_BENCH_BENCH_UTIL_HH

#include <array>
#include <string>
#include <vector>

#include "common/table.hh"
#include "figure_spec.hh"
#include "power/energy.hh"
#include "workloads/polybench.hh"
#include "workloads/suite.hh"

namespace canon
{
namespace bench
{

/**
 * The architecture columns of Figures 12-14: the baselines in table
 * order, then Canon, the reference every column is normalized to.
 */
inline constexpr std::array<Arch, kArchCount> kFigureArchs = [] {
    std::array<Arch, kArchCount> order{};
    std::size_t i = 0;
    for (const ArchInfo &row : kArchTable)
        if (row.arch != Arch::Canon)
            order[i++] = row.arch;
    order[i] = Arch::Canon;
    return order;
}();

/**
 * Parse a figure bench's argument vector: the common flags
 * (engine::commonFlags()) and --help, through engine::FlagSet.
 * Returns an empty string on success, otherwise the error message.
 * This is the one CLI grammar every bench binary shares.
 */
std::string parseBenchArgs(const std::vector<std::string> &args,
                           BenchOptions &out);

/** The shared --jobs/--shard usage text. */
const char *benchUsageText();

/** One x-axis entry of Figures 12/13. */
struct WorkloadCase
{
    std::string label;
    CaseResult results; //!< absent arch => "X"
};

/** The twelve x-axis labels of Figures 12/13, in paper order. */
const std::vector<std::string> &figure12Labels();

/**
 * Build x-axis entry @p index of Figures 12/13. Entries are
 * independent (each derives its RNG seeds from its own index), so
 * the grid can run on the worker pool in any order.
 */
WorkloadCase figure12Case(std::size_t index, const ArchSuite &suite);

/**
 * One figure row: @p label, then a cell per kFigureArchs column,
 * @p ratio(profile, canon's profile) at two decimals, or "X" where
 * the architecture cannot run.
 */
template <typename Ratio>
std::vector<std::string>
normalizedRow(std::string label, const CaseResult &r, Ratio ratio)
{
    std::vector<std::string> row = {std::move(label)};
    for (const Arch a : kFigureArchs) {
        const auto it = r.find(a);
        row.push_back(it == r.end()
                          ? "X"
                          : Table::fmt(ratio(it->second, r.at(Arch::Canon)),
                                       2));
    }
    return row;
}

} // namespace bench
} // namespace canon

#endif // CANON_BENCH_BENCH_UTIL_HH
