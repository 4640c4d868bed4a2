/**
 * @file
 * Paper-scale workloads on the Canon cycle simulator.
 *
 * The fabric natively executes tiles of shape N = cols*4 (output
 * columns) with B resident (dense-stationary, Section 6.4). This
 * runner:
 *
 *  - tiles wider problems into column passes (B slice swapped per
 *    pass, A re-streamed) and pads ragged edges with zeros,
 *  - for very large shapes simulates a statistically representative
 *    proxy (full K so per-row-slice populations are authentic; M
 *    capped; one column pass) and scales cycles/activity by the exact
 *    replication factor -- valid because passes are i.i.d. and the
 *    per-row control overheads are M-linear,
 *  - records the off-chip traffic of the dense-stationary schedule
 *    for the bandwidth analysis of Figure 16.
 *
 * Scaling decisions are recorded in the returned profile's workload
 * string; tests cross-validate proxy scaling against exact runs on
 * overlapping sizes.
 */

#ifndef CANON_WORKLOADS_CANON_RUNNER_HH
#define CANON_WORKLOADS_CANON_RUNNER_HH

#include <functional>

#include "core/fabric.hh"
#include "kernels/dense_cadence.hh"
#include "kernels/sddmm.hh"
#include "kernels/spmm.hh"
#include "sparse/generate.hh"

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
    int maxProxyPasses = 1;  //!< column passes actually simulated

    /** The row cap in effect for @p cfg (explicit or derived). */
    int effectiveProxyRows(const CanonConfig &cfg) const;
};

/**
 * The proxy one Canon execution simulates in place of its full
 * problem, and the factor that scales the proxy's profile back up:
 * (m / rows) * (full depth / depth) * (passes / simPasses).
 */
struct ProxyPlan
{
    int rows = 0;                //!< simulated output rows
    int depth = 0;               //!< simulated depth (K; N for SDDMM)
    std::uint64_t passes = 0;    //!< column passes of the full problem
    std::uint64_t simPasses = 0; //!< column passes simulated
    double factor = 0.0;         //!< replication factor
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
     * capacity; and n / (cols x 4) column passes, of which at most
     * opt.maxProxyPasses are simulated.
     */
    ProxyPlan plan(std::int64_t m, std::int64_t depth, std::int64_t n,
                   int quantum, const CanonRunOptions &opt = {}) const;

    /** Exact run of a concrete sparse matrix (shapes must be
     *  fabric-tileable after zero padding). */
    ExecutionProfile spmmExact(const CsrMatrix &a, const DenseMatrix &b,
                               WordMatrix *result_out = nullptr) const;

    /** Synthetic SpMM at (m, k, n) with unstructured @p sparsity. */
    ExecutionProfile spmmShape(std::int64_t m, std::int64_t k,
                               std::int64_t n, double sparsity,
                               std::uint64_t seed,
                               const CanonRunOptions &opt = {}) const;

    /** Dense GEMM at (m, k, n). */
    ExecutionProfile gemmShape(std::int64_t m, std::int64_t k,
                               std::int64_t n, std::uint64_t seed,
                               const CanonRunOptions &opt = {}) const;

    /** N:M structured SpMM at (m, k, n). */
    ExecutionProfile nmShape(std::int64_t m, std::int64_t k,
                             std::int64_t n, int nm_n, int nm_m,
                             std::uint64_t seed,
                             const CanonRunOptions &opt = {}) const;

    /** Unstructured SDDMM at (m, k, n) with output @p mask_sparsity. */
    ExecutionProfile sddmmShape(std::int64_t m, std::int64_t k,
                                std::int64_t n, double mask_sparsity,
                                std::uint64_t seed,
                                const CanonRunOptions &opt = {}) const;

    /** Sliding-window SDDMM (seq x seq scores, band @p window). */
    ExecutionProfile sddmmWindowShape(std::int64_t seq, std::int64_t k,
                                      std::int64_t window,
                                      std::uint64_t seed,
                                      const CanonRunOptions &opt = {})
        const;

  private:
    /**
     * The one place a workload builds, loads and runs a fabric: one
     * fresh fabric per pass, loaded with @p map(pass) and run to
     * completion, its profile accumulated under @p kernel. @p onPass,
     * when set, sees each finished fabric.
     */
    ExecutionProfile runPasses(
        std::uint64_t passes, const std::string &kernel,
        const std::function<KernelMapping(std::uint64_t)> &map,
        const std::function<void(std::uint64_t, const CanonFabric &)>
            &onPass = {}) const;

    CanonConfig cfg_;
};

} // namespace canon

#endif // CANON_WORKLOADS_CANON_RUNNER_HH
