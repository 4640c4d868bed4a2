/**
 * @file
 * ZeD-like generalized sparse accelerator baseline (Section 5; Dangi
 * et al., PACT 2024).
 *
 * Behavioural model of the characteristics the paper's comparison
 * rests on:
 *  - work proportional to non-zeros (specialized decode datapath),
 *  - row-granular distribution of A rows to MAC clusters with work
 *    stealing (list scheduling): excellent balance when rows carry
 *    many non-zeros (S1/S2), degraded by per-row startup/decode
 *    latency when rows are tiny (high sparsity) and by single long
 *    rows under skew,
 *  - a fixed unstructured datapath: N:M and window structure are not
 *    exploited (treated as unstructured),
 *  - crossbar distribution + decoders that tax energy per non-zero.
 *
 * The timing core is a list-scheduling makespan over per-row costs;
 * the test suite pins its invariants (never better than the ideal
 * work bound, monotone under stealing, exact on uniform rows).
 */

#ifndef CANON_BASELINES_ZED_HH
#define CANON_BASELINES_ZED_HH

#include <vector>

#include "power/profile.hh"
#include "sparse/matrix.hh"

namespace canon
{

struct ZedConfig
{
    int clusters = 16;        //!< independent row processors
    int lanesPerCluster = 16; //!< MAC lanes per cluster (16x16 = 256)
    int rowStartup = 4;       //!< decode + B-row fetch latency per row
    bool workStealing = true;

    int numMacs() const { return clusters * lanesPerCluster; }
};

class ZedModel
{
  public:
    explicit ZedModel(const ZedConfig &cfg = {}) : cfg_(cfg) {}

    /** SpMM from an explicit sparse matrix (real row population). */
    ExecutionProfile spmm(const CsrMatrix &a, std::int64_t n) const;

    /** SpMM from per-row non-zero counts (synthetic/large shapes). */
    ExecutionProfile spmmRows(const std::vector<std::int64_t> &row_nnz,
                              std::int64_t n) const;

    /** Dense GEMM: every row fully populated. */
    ExecutionProfile gemm(std::int64_t m, std::int64_t k,
                          std::int64_t n) const;

    /** SDDMM: per output row, work = mask-row-nnz * K. */
    ExecutionProfile sddmmRows(
        const std::vector<std::int64_t> &mask_row_nnz,
        std::int64_t k) const;

    const ZedConfig &config() const { return cfg_; }

    /** List-scheduling makespan over per-row cycle costs (exposed
     *  for property tests). */
    std::uint64_t makespan(const std::vector<std::uint64_t> &row_cycles)
        const;

    /**
     * SDDMM's inner products gather both operand vectors through the
     * banked SRAM (the output mask addresses are arbitrary), unlike
     * SpMM's streaming B-row fetch; the crossbar sustains reduced MAC
     * throughput. ZeD's datapath is specialized for the SpMM side.
     */
    static constexpr double kSddmmFetchFactor = 1.4;

  private:
    ExecutionProfile runRows(const std::vector<std::int64_t> &row_work,
                             std::int64_t words_per_unit,
                             const std::string &workload,
                             double fetch_factor = 1.0) const;

    ZedConfig cfg_;
};

} // namespace canon

#endif // CANON_BASELINES_ZED_HH
