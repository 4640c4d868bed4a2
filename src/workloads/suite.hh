/**
 * @file
 * Cross-architecture workload execution: one call runs a workload
 * case on every architecture of Section 5 (Canon cycle simulation,
 * systolic / 2:4-systolic / ZeD / CGRA models) and returns the
 * profiles keyed by architecture name. Architectures that cannot run
 * a case (the "X" marks of Figures 12/13) are simply absent from the
 * result.
 */

#ifndef CANON_WORKLOADS_SUITE_HH
#define CANON_WORKLOADS_SUITE_HH

#include <map>
#include <set>
#include <string>

#include "baselines/cgra.hh"
#include "baselines/systolic.hh"
#include "baselines/zed.hh"
#include "workloads/canon_runner.hh"
#include "workloads/models.hh"

namespace canon
{

using CaseResult = std::map<std::string, ExecutionProfile>;

class ArchSuite
{
  public:
    explicit ArchSuite(const CanonConfig &cfg = CanonConfig::paper());

    /**
     * Suite restricted to @p archs (names as in the driver: "canon",
     * "systolic", "systolic24", "zed", "cgra"). Unselected
     * architectures are skipped entirely -- in particular a
     * baseline-only run no longer pays for the dominant Canon cycle
     * simulation. An empty set selects every architecture.
     */
    ArchSuite(const CanonConfig &cfg,
              const std::vector<std::string> &archs);

    /** True when @p arch is in the selected set. */
    bool enabled(const std::string &arch) const
    {
        return archs_.empty() || archs_.count(arch) != 0;
    }

    CaseResult gemm(std::int64_t m, std::int64_t k, std::int64_t n,
                    std::uint64_t seed) const;

    CaseResult spmm(std::int64_t m, std::int64_t k, std::int64_t n,
                    double sparsity, std::uint64_t seed) const;

    /**
     * SpMM with a bimodal row population (alternating rows at the two
     * sparsities): the skewed-input regime where row-granular work
     * distribution struggles (Section 6.2's S3 cases).
     */
    CaseResult spmmBimodal(std::int64_t m, std::int64_t k,
                           std::int64_t n, double sparsity_a,
                           double sparsity_b,
                           std::uint64_t seed) const;

    CaseResult spmmNm(std::int64_t m, std::int64_t k, std::int64_t n,
                      int nm_n, int nm_m, std::uint64_t seed) const;

    CaseResult sddmm(std::int64_t m, std::int64_t k, std::int64_t n,
                     double mask_sparsity, std::uint64_t seed) const;

    CaseResult sddmmWindow(std::int64_t seq, std::int64_t k,
                           std::int64_t window,
                           std::uint64_t seed) const;

    /**
     * Run one layer -- or one canonsim shape scenario -- with the
     * per-kind method its workload names.
     */
    CaseResult run(const LayerSpec &layer, std::uint64_t seed) const;

    /** Run a whole model (Figure 14): per-arch accumulated profile. */
    CaseResult model(const ModelSpec &spec, std::uint64_t seed) const;

    const CanonRunner &canon() const { return canon_; }
    const ZedModel &zed() const { return zed_; }
    const CgraModel &cgra() const { return cgra_; }

  private:
    /** Binomially distributed per-row nnz for the ZeD row model. */
    std::vector<std::int64_t> sampleRowNnz(std::int64_t rows,
                                           std::int64_t k,
                                           double density,
                                           std::uint64_t seed) const;

    CanonRunner canon_;
    SystolicModel systolic_;
    SystolicModel systolic24_;
    ZedModel zed_;
    CgraModel cgra_;
    std::set<std::string> archs_; //!< empty = all selected
};

} // namespace canon

#endif // CANON_WORKLOADS_SUITE_HH
