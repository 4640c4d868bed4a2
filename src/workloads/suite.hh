/**
 * @file
 * Cross-architecture workload execution: one call runs a workload
 * case on every architecture of Section 5 (Canon cycle simulation,
 * systolic / 2:4-systolic / ZeD / CGRA models) and returns the
 * profiles keyed by Arch. Architectures that cannot run a case (the
 * "X" marks of Figures 12/13) are simply absent from the result.
 */

#ifndef CANON_WORKLOADS_SUITE_HH
#define CANON_WORKLOADS_SUITE_HH

#include <map>

#include "baselines/cgra.hh"
#include "baselines/systolic.hh"
#include "baselines/zed.hh"
#include "workloads/arch.hh"
#include "workloads/canon_runner.hh"
#include "workloads/models.hh"

namespace canon
{

/** Per-architecture profiles; iterates in display order. */
using CaseResult = std::map<Arch, ExecutionProfile>;

class ArchSuite
{
  public:
    /**
     * Suite restricted to @p archs. Unselected architectures are
     * skipped entirely -- in particular a baseline-only run does not
     * pay for the dominant Canon cycle simulation.
     */
    explicit ArchSuite(const CanonConfig &cfg = CanonConfig::paper(),
                       ArchSet archs = ArchSet::all());

    /**
     * Run one layer -- or one canonsim shape scenario -- on every
     * selected architecture: the one dispatch behind canonsim shapes,
     * model layers and the Figure 12/13 workload matrix.
     */
    CaseResult run(const LayerSpec &layer, std::uint64_t seed) const;

    /**
     * SpMM with a bimodal row population (alternating rows at the two
     * sparsities): the skewed-input regime where row-granular work
     * distribution struggles (Section 6.2's S3 cases). Canon and ZeD
     * consume one sampled population, which a LayerSpec cannot
     * express.
     */
    CaseResult spmmBimodal(std::int64_t m, std::int64_t k,
                           std::int64_t n, double sparsity_a,
                           double sparsity_b,
                           std::uint64_t seed) const;

    /** Run a whole model (Figure 14): per-arch accumulated profile. */
    CaseResult model(const ModelSpec &spec, std::uint64_t seed) const;

  private:
    CanonRunner canon_;
    SystolicModel systolic_;
    SystolicModel systolic24_;
    ZedModel zed_;
    CgraModel cgra_;
    ArchSet archs_;
};

} // namespace canon

#endif // CANON_WORKLOADS_SUITE_HH
