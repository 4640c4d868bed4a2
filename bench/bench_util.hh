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

#include <optional>
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

/** The architecture columns of Figures 12/13, in paper order. */
inline const std::vector<std::string> &
archOrder()
{
    static const std::vector<std::string> order = {
        "systolic", "systolic24", "zed", "cgra", "canon"};
    return order;
}

inline const char *
archLabel(const std::string &a)
{
    if (a == "systolic")
        return "Systolic";
    if (a == "systolic24")
        return "Systolic(2:4)";
    if (a == "zed")
        return "ZeD";
    if (a == "cgra")
        return "CGRA";
    return "Canon";
}

/**
 * Parse a figure bench's argument vector (--jobs N, --shard I/N,
 * --help; both "--key value" and "--key=value" spellings). Returns an
 * empty string on success, otherwise the error message. This is the
 * one CLI grammar every bench binary shares.
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

/** cycles(canon) / cycles(arch): >1 means arch is faster. */
inline std::optional<double>
normalizedPerformance(const CaseResult &r, const std::string &arch)
{
    auto it = r.find(arch);
    if (it == r.end())
        return std::nullopt;
    return static_cast<double>(r.at("canon").cycles) /
           static_cast<double>(it->second.cycles);
}

/** energy(canon) / energy(arch): same work, so this is perf/W. */
inline std::optional<double>
normalizedPerfPerWatt(const CaseResult &r, const std::string &arch,
                      const EnergyModel &energy)
{
    auto it = r.find(arch);
    if (it == r.end())
        return std::nullopt;
    const double canon_j =
        energy.evaluate(r.at("canon")).totalJoules();
    const double arch_j = energy.evaluate(it->second).totalJoules();
    return canon_j / arch_j;
}

inline std::string
cell(const std::optional<double> &v, int prec = 2)
{
    return v ? Table::fmt(*v, prec) : "X";
}

} // namespace bench
} // namespace canon

#endif // CANON_BENCH_BENCH_UTIL_HH
