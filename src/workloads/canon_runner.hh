/**
 * @file
 * Paper-scale workloads on the Canon cycle simulator.
 *
 * The fabric natively executes tiles of shape N = cols*4 (output
 * columns) with B resident (dense-stationary, Section 6.4). A layer's
 * profile is a function of the fabric, the layer and the seed alone:
 * no caller tunes how it is simulated. Every layer builds, loads and
 * runs exactly one fabric, and this runner:
 *
 *  - counts the column passes of wider problems (B slice swapped per
 *    pass, A re-streamed) but simulates one: the orchestrators turn
 *    meta tokens into control and never read data values, so every
 *    pass repeats the first pass's cycles and activity exactly,
 *  - always runs that fabric for its profile, folded where it can
 *    (CanonFabric::runForProfile): for the same reason, PE column c
 *    repeats column 0 three cycles per column later, so only column 0
 *    is simulated and the profile is unchanged. It never computes a
 *    product; code that checks one builds its own fabric,
 *  - for very large shapes simulates a statistically representative
 *    proxy (full K so per-row-slice populations are authentic; M
 *    capped by proxyRowCap) and scales cycles/activity by the exact
 *    replication factor -- valid because the per-row control
 *    overheads are M-linear,
 *  - records the off-chip traffic of the dense-stationary schedule.
 *
 * The SpMM proxy's A is drawn straight into the meta streams
 * (drawSpmm), never built as a CSR; its profile is exactly that of
 * spmmExact on randomSparse and randomDense drawn from the same seed.
 * Tests cross-validate proxy scaling against exact runs of the full
 * matrix, and the one simulated pass against every pass. Code that
 * wants a chosen proxy size draws the operands itself and calls
 * spmmExact.
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

/**
 * The most output rows a proxy of a layer on @p cfg simulates: at
 * least kMinProxyRows (kMinProxyRowsAdaptive under the adaptive flush
 * policy, whose flat cost curve affords the larger sample), at least
 * kMinProxySlicesPerRow slices per orchestrator row, rounded up to a
 * multiple of the fabric height so every orchestrator row simulates
 * the same number of row-slices. For the 8x8..32x32 fabrics the eager
 * floor gives 512; taller fabrics get proportionally more rows
 * instead of a silently thinning sample.
 */
int proxyRowCap(const CanonConfig &cfg);

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

/**
 * The SpMM proxy CanonRunner::run simulates, drawn and mapped in one
 * pass: A (@p rows x @p depth at @p sparsity) goes from @p rng
 * straight into the meta streams (sparseRows dealt by SpmmSlicer),
 * then B (depth x cols*4) is drawn from the same rng. The mapping and
 * the rng state after it equal those of
 * mapSpmm(randomSparse(rows, depth, sparsity, rng),
 * randomDense(depth, cols*4, rng), cfg), but no CSR is built.
 * @p nnz receives A's nonzero count.
 */
KernelMapping drawSpmm(int rows, int depth, double sparsity, Rng &rng,
                       const CanonConfig &cfg, std::size_t &nnz);

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
     * capped by proxyRowCap(config()); the depth tiled over the
     * fabric rows, clamped to rows x dmemSlots and rounded up to
     * @p quantum (the fabric height, or height x M for N:M),
     * stepping back one quantum when rounding overshoots the
     * capacity; and ceil(n / (cols x 4)) column passes, all counted
     * by the factor.
     */
    ProxyPlan plan(std::int64_t m, std::int64_t depth, std::int64_t n,
                   int quantum) const;

    /**
     * Profile of one exact run of a concrete sparse matrix: one
     * column pass, so the operands must be the ones mapSpmm accepts
     * (K a multiple of the fabric rows within its data memory, N =
     * cols x 4). The product is not kept; code that checks it builds
     * its own fabric.
     */
    ExecutionProfile spmmExact(const CsrMatrix &a,
                               const DenseMatrix &b) const;

    /**
     * Run one layer: plan its proxy, draw and map the proxy's
     * operands from Rng(@p seed) (an SpMM's A straight into its
     * streams, drawSpmm), run the one simulated pass and scale
     * the profile back to the full layer. offchipBytes is the layer's
     * dense-stationary traffic (unstructured SpMM scales its proxy's).
     * A sliding-window SDDMM runs as the dense (m x k x window)
     * product that computes exactly the band (Section 4.1.3).
     */
    ExecutionProfile run(const LayerSpec &layer, std::uint64_t seed) const;

  private:
    /**
     * The one place a workload builds, loads and runs a fabric: a
     * fresh fabric loaded with @p mapping and run to completion for
     * its profile (folded where the fabric allows), which comes back
     * under @p kernel.
     */
    ExecutionProfile runFabric(KernelMapping mapping,
                               const std::string &kernel) const;

    CanonConfig cfg_;
};

} // namespace canon

#endif // CANON_WORKLOADS_CANON_RUNNER_HH
