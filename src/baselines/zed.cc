#include "baselines/zed.hh"

#include <algorithm>
#include <queue>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace canon
{

std::uint64_t
ZedModel::makespan(const std::vector<std::uint64_t> &row_cycles) const
{
    if (row_cycles.empty())
        return 0;
    if (cfg_.workStealing) {
        // List scheduling in arrival order: each row goes to the
        // earliest-available cluster -- the effect of hardware work
        // stealing at row granularity.
        std::priority_queue<std::uint64_t,
                            std::vector<std::uint64_t>,
                            std::greater<>>
            clusters;
        for (int i = 0; i < cfg_.clusters; ++i)
            clusters.push(0);
        std::uint64_t span = 0;
        for (auto rc : row_cycles) {
            auto t = clusters.top();
            clusters.pop();
            t += rc;
            span = std::max(span, t);
            clusters.push(t);
        }
        return span;
    }
    // Static round-robin assignment.
    std::vector<std::uint64_t> load(
        static_cast<std::size_t>(cfg_.clusters), 0);
    for (std::size_t i = 0; i < row_cycles.size(); ++i)
        load[i % cfg_.clusters] += row_cycles[i];
    return *std::max_element(load.begin(), load.end());
}

ExecutionProfile
ZedModel::runRows(const std::vector<std::int64_t> &row_work,
                  std::int64_t words_per_unit,
                  const std::string &workload,
                  double fetch_factor) const
{
    ExecutionProfile p;
    p.workload = workload;
    p.peCount = static_cast<std::uint64_t>(cfg_.numMacs());

    std::vector<std::uint64_t> row_cycles;
    row_cycles.reserve(row_work.size());
    std::uint64_t units = 0;
    for (auto w : row_work) {
        if (w == 0)
            continue; // empty rows are skipped by the decoder
        units += static_cast<std::uint64_t>(w);
        const auto lane_work = static_cast<std::uint64_t>(
            static_cast<double>(w) * words_per_unit * fetch_factor);
        row_cycles.push_back(
            static_cast<std::uint64_t>(cfg_.rowStartup) +
            divCeil(lane_work,
                    static_cast<std::uint64_t>(cfg_.lanesPerCluster)));
    }
    p.cycles = std::max<std::uint64_t>(makespan(row_cycles), 1);
    p.add(Activity::LaneMacs, units * words_per_unit);
    p.add(Activity::DecodeOps, units);
    p.add(Activity::CrossbarXfers, units);
    // Operand fetches from the banked SRAM: one word per lane-MAC
    // (B-row words for SpMM, A/B words for SDDMM) plus outputs.
    p.add(Activity::EdgeSramReads, units * words_per_unit);
    p.add(Activity::EdgeSramWrites, units * words_per_unit / 4);
    return p;
}

ExecutionProfile
ZedModel::spmm(const CsrMatrix &a, std::int64_t n) const
{
    std::vector<std::int64_t> work;
    work.reserve(static_cast<std::size_t>(a.rows()));
    for (int m = 0; m < a.rows(); ++m)
        work.push_back(a.rowNnz(m));
    return runRows(work, n, "spmm");
}

ExecutionProfile
ZedModel::spmmRows(const std::vector<std::int64_t> &row_nnz,
                   std::int64_t n) const
{
    return runRows(row_nnz, n, "spmm");
}

ExecutionProfile
ZedModel::gemm(std::int64_t m, std::int64_t k, std::int64_t n) const
{
    std::vector<std::int64_t> work(static_cast<std::size_t>(m), k);
    auto p = runRows(work, n, "gemm");
    // Dense inputs still pass through the sparse decoders.
    return p;
}

ExecutionProfile
ZedModel::sddmmRows(const std::vector<std::int64_t> &mask_row_nnz,
                    std::int64_t k) const
{
    return runRows(mask_row_nnz, k, "sddmm", kSddmmFetchFactor);
}

} // namespace canon
