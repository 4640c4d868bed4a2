/**
 * @file
 * Paper-scale workloads on the Canon cycle simulator.
 *
 * The fabric natively executes tiles of shape N = cols*4 (output
 * columns) with B resident (dense-stationary, Section 6.4). Every
 * layer builds, loads and runs exactly one fabric. This runner:
 *
 *  - counts the column passes of wider problems (B slice swapped per
 *    pass, A re-streamed) but simulates one: the orchestrators turn
 *    meta tokens into control and never read data values, so every
 *    pass repeats the first pass's cycles and activity exactly,
 *  - for very large shapes simulates a statistically representative
 *    proxy (full K so per-row-slice populations are authentic; M
 *    capped) and scales cycles/activity by the exact replication
 *    factor -- valid because the per-row control overheads are
 *    M-linear,
 *  - records the off-chip traffic of the dense-stationary schedule.
 *
 * Scaling decisions are recorded in the returned profile's workload
 * string; tests cross-validate proxy scaling against exact runs on
 * overlapping sizes, and the one simulated pass against every pass.
 */

#ifndef CANON_WORKLOADS_CANON_RUNNER_HH
#define CANON_WORKLOADS_CANON_RUNNER_HH

#include "core/fabric.hh"
#include "kernels/dense_cadence.hh"
#include "kernels/sddmm.hh"
#include "kernels/spmm.hh"
#include "sparse/generate.hh"
#include "workloads/models.hh"

namespace canon
{

/**
 * Floor of the derived proxy-row cap under the eager flush policy:
 * enough i.i.d. row-slices for the scaled statistics to sit within a
 * few percent of an exact run (cross-validated in workloads_test at
 * 8x8 through 32x32), while staying inside the flat region of the
 * per-row cycle cost -- under eager flushing, beyond roughly 1k
 * resident rows psum-tag merge misses make per-row cost superlinear
 * (docs/resident_rows.md), so simulating more rows would make the
 * M-linear extrapolation *less* faithful, not more.
 */
inline constexpr int kMinProxyRows = 512;

/**
 * Floor of the derived proxy-row cap under the adaptive flush
 * policy. Adaptive flushing keeps the per-row cost curve flat
 * through at least 4096 resident rows (the regenerated curve in
 * docs/resident_rows.md: the 2048-row cost is *below* the 512-row
 * cost on 16x16 and 32x32), so the proxy can afford a 4x larger
 * sample and the M-linear extrapolation only gets more faithful.
 */
inline constexpr int kMinProxyRowsAdaptive = 2048;

/**
 * Minimum simulated row-slices per orchestrator row. The proxy's
 * validity argument is that per-orchestrator work populations are
 * sampled representatively; on tall fabrics the 512-row floor alone
 * would thin each orchestrator's sample (512 rows over 64
 * orchestrators is 8 slices each), so the cap scales with height.
 */
inline constexpr int kMinProxySlicesPerRow = 16;

struct CanonRunOptions
{
    /**
     * Cap on simulated output rows; 0 (the default) derives the cap
     * from the fabric via effectiveProxyRows(): at least
     * kMinProxyRows (kMinProxyRowsAdaptive under the adaptive flush
     * policy, whose flat cost curve affords the larger sample), at
     * least kMinProxySlicesPerRow slices per orchestrator row,
     * rounded up to a multiple of the fabric height so every
     * orchestrator row simulates the same number of row-slices. For
     * the 8x8..32x32 fabrics the eager floor derives the historical
     * 512; taller fabrics get proportionally more rows instead of a
     * silently thinning sample.
     */
    int maxProxyRows = 0;

    /** The row cap in effect for @p cfg (explicit or derived). */
    int effectiveProxyRows(const CanonConfig &cfg) const;
};

/**
 * The proxy one Canon execution simulates in place of its full
 * problem -- one column pass of rows x depth -- and the factor that
 * scales the proxy's profile back up:
 * (m / rows) * (full depth / depth) * passes.
 */
struct ProxyPlan
{
    int rows = 0;             //!< simulated output rows
    int depth = 0;            //!< simulated depth (K; N for SDDMM)
    std::uint64_t passes = 0; //!< column passes of the full problem
    double factor = 0.0;      //!< replication factor
};

class CanonRunner
{
  public:
    explicit CanonRunner(const CanonConfig &cfg = CanonConfig::paper())
        : cfg_(cfg)
    {
    }

    const CanonConfig &config() const { return cfg_; }

    /**
     * The proxy of an (m x depth) by (depth x n) execution: rows
     * capped by CanonRunOptions::effectiveProxyRows; the depth tiled
     * over the fabric rows, clamped to rows x dmemSlots and rounded
     * up to @p quantum (the fabric height, or height x M for N:M),
     * stepping back one quantum when rounding overshoots the
     * capacity; and ceil(n / (cols x 4)) column passes, all counted
     * by the factor.
     */
    ProxyPlan plan(std::int64_t m, std::int64_t depth, std::int64_t n,
                   int quantum, const CanonRunOptions &opt = {}) const;

    /**
     * Exact run of a concrete sparse matrix: one column pass, so the
     * operands must be the ones mapSpmm accepts (K a multiple of the
     * fabric rows within its data memory, N = cols x 4). The product
     * lands in @p result_out when given.
     */
    ExecutionProfile spmmExact(const CsrMatrix &a, const DenseMatrix &b,
                               WordMatrix *result_out = nullptr) const;

    /**
     * Run one layer: plan its proxy, draw the proxy's operands from
     * Rng(@p seed), map them, run the one simulated pass and scale
     * the profile back to the full layer. offchipBytes is the layer's
     * dense-stationary traffic (unstructured SpMM scales its proxy's).
     * A sliding-window SDDMM runs as the dense (m x k x window)
     * product that computes exactly the band (Section 4.1.3).
     */
    ExecutionProfile run(const LayerSpec &layer, std::uint64_t seed,
                         const CanonRunOptions &opt = {}) const;

  private:
    /**
     * The one place a workload builds, loads and runs a fabric: a
     * fresh fabric loaded with @p mapping and run to completion. Its
     * profile comes back under @p kernel, and its result matrix lands
     * in @p result_out when given.
     */
    ExecutionProfile runFabric(KernelMapping mapping,
                               const std::string &kernel,
                               WordMatrix *result_out = nullptr) const;

    CanonConfig cfg_;
};

} // namespace canon

#endif // CANON_WORKLOADS_CANON_RUNNER_HH
