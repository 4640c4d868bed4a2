#include "workloads/canon_runner.hh"

#include <algorithm>

#include "common/bitfield.hh"

namespace canon
{

namespace
{

/** Round @p v up to a multiple of @p q. */
std::int64_t
roundUp(std::int64_t v, std::int64_t q)
{
    return divCeil(static_cast<std::uint64_t>(v),
                   static_cast<std::uint64_t>(q)) *
           q;
}

/** Re-home a CSR matrix into a padded (rows x cols) shape. */
CsrMatrix
padCsr(const CsrMatrix &a, int rows, int cols)
{
    CsrMatrix out(rows, cols);
    const auto &rp = a.rowPtr();
    for (int r = 0; r < a.rows(); ++r)
        for (auto i = rp[r]; i < rp[r + 1]; ++i)
            out.append(r, a.colIdx()[i], a.values()[i]);
    return out;
}

/** Zero-pad a dense matrix to (rows x cols). */
DenseMatrix
padDense(const DenseMatrix &d, int rows, int cols)
{
    DenseMatrix out(rows, cols);
    for (int r = 0; r < d.rows(); ++r)
        for (int c = 0; c < d.cols(); ++c)
            out.at(r, c) = d.at(r, c);
    return out;
}

/** Slice columns [c0, c0+w) of @p d, zero-padded past the edge. */
DenseMatrix
sliceCols(const DenseMatrix &d, int c0, int w)
{
    DenseMatrix out(d.rows(), w);
    for (int r = 0; r < d.rows(); ++r)
        for (int c = 0; c < w; ++c)
            if (c0 + c < d.cols())
                out.at(r, c) = d.at(r, c0 + c);
    return out;
}

/** Dense-stationary off-chip traffic for one SpMM-style execution. */
std::uint64_t
spmmOffchipBytes(std::uint64_t nnz, std::int64_t m, std::int64_t k,
                 std::int64_t n, std::uint64_t passes)
{
    // B resident once (INT8), A re-streamed per pass (value byte +
    // 2-byte coordinate + row tokens), C written back as INT32.
    return static_cast<std::uint64_t>(k) * n +
           passes * (nnz * 3 + static_cast<std::uint64_t>(m) * 2) +
           static_cast<std::uint64_t>(m) * n * 4;
}

} // namespace

int
CanonRunOptions::effectiveProxyRows(const CanonConfig &cfg) const
{
    if (maxProxyRows > 0)
        return maxProxyRows;
    const int base = cfg.spadFlush == SpadFlushPolicy::Adaptive
                         ? kMinProxyRowsAdaptive
                         : kMinProxyRows;
    const std::int64_t floor = std::max<std::int64_t>(
        base,
        static_cast<std::int64_t>(kMinProxySlicesPerRow) * cfg.rows);
    return static_cast<int>(roundUp(floor, cfg.rows));
}

ProxyPlan
CanonRunner::plan(std::int64_t m, std::int64_t depth, std::int64_t n,
                  int quantum, const CanonRunOptions &opt) const
{
    const std::int64_t cap =
        static_cast<std::int64_t>(cfg_.rows) * cfg_.dmemSlots;
    std::int64_t d = roundUp(std::min(depth, cap), quantum);
    if (d > cap)
        d -= quantum;

    ProxyPlan p;
    p.rows = static_cast<int>(
        std::min<std::int64_t>(m, opt.effectiveProxyRows(cfg_)));
    p.depth = static_cast<int>(std::max<std::int64_t>(d, quantum));
    p.passes = divCeil(static_cast<std::uint64_t>(n),
                       static_cast<std::uint64_t>(cfg_.cols) * kSimdWidth);
    p.simPasses = std::min<std::uint64_t>(
        p.passes, static_cast<std::uint64_t>(opt.maxProxyPasses));
    p.factor = (static_cast<double>(m) / p.rows) *
               (static_cast<double>(depth) / p.depth) *
               (static_cast<double>(p.passes) /
                static_cast<double>(p.simPasses));
    return p;
}

ExecutionProfile
CanonRunner::runPasses(
    std::uint64_t passes, const std::string &kernel,
    const std::function<KernelMapping(std::uint64_t)> &map,
    const std::function<void(std::uint64_t, const CanonFabric &)>
        &onPass) const
{
    ExecutionProfile total;
    total.arch = "canon";
    total.workload = kernel;
    total.peCount = static_cast<std::uint64_t>(cfg_.numPes());
    for (std::uint64_t p = 0; p < passes; ++p) {
        CanonFabric fabric(cfg_);
        fabric.load(map(p));
        fabric.run();
        total.accumulate(fabric.profile(kernel));
        if (onPass)
            onPass(p, fabric);
    }
    return total;
}

ExecutionProfile
CanonRunner::spmmExact(const CsrMatrix &a, const DenseMatrix &b,
                       WordMatrix *result_out) const
{
    const int tile_n = cfg_.cols * kSimdWidth;
    const int k_pad =
        static_cast<int>(roundUp(b.rows(), cfg_.rows));
    fatalIf(k_pad / cfg_.rows > cfg_.dmemSlots,
            "CanonRunner: K=", b.rows(),
            " exceeds on-chip capacity; tile K upstream");
    const auto a_pad = a.cols() == k_pad ? a : padCsr(a, a.rows(), k_pad);
    const auto b_pad =
        b.rows() == k_pad ? b : padDense(b, k_pad, b.cols());

    const auto passes = divCeil(static_cast<std::uint64_t>(b.cols()),
                                static_cast<std::uint64_t>(tile_n));
    if (result_out)
        *result_out = WordMatrix(a.rows(), b.cols());

    auto total = runPasses(
        passes, "spmm",
        [&](std::uint64_t p) {
            return mapSpmm(a_pad,
                           sliceCols(b_pad, static_cast<int>(p) * tile_n,
                                     tile_n),
                           cfg_);
        },
        [&](std::uint64_t p, const CanonFabric &fabric) {
            if (!result_out)
                return;
            const auto &r = fabric.result();
            const int c0 = static_cast<int>(p) * tile_n;
            for (int m = 0; m < r.rows(); ++m)
                for (int c = 0; c < tile_n && c0 + c < b.cols(); ++c)
                    result_out->at(m, c0 + c) = r.at(m, c);
        });
    total.add("offchipBytes",
              spmmOffchipBytes(a.nnz(), a.rows(), b.rows(), b.cols(),
                               passes));
    return total;
}

ExecutionProfile
CanonRunner::spmmShape(std::int64_t m, std::int64_t k, std::int64_t n,
                       double sparsity, std::uint64_t seed,
                       const CanonRunOptions &opt) const
{
    const int tile_n = cfg_.cols * kSimdWidth;
    const ProxyPlan proxy = plan(m, k, n, cfg_.rows, opt);

    Rng rng(seed);
    const auto a = randomSparse(proxy.rows, proxy.depth, sparsity, rng);
    const auto b = randomDense(
        proxy.depth, static_cast<int>(proxy.simPasses) * tile_n, rng);

    auto p = spmmExact(CsrMatrix::fromDense(a), b);
    p.scale(proxy.factor);
    return p;
}

ExecutionProfile
CanonRunner::gemmShape(std::int64_t m, std::int64_t k, std::int64_t n,
                       std::uint64_t seed,
                       const CanonRunOptions &opt) const
{
    const int tile_n = cfg_.cols * kSimdWidth;
    const ProxyPlan proxy = plan(m, k, n, cfg_.rows, opt);

    Rng rng(seed);
    const auto a = randomDense(proxy.rows, proxy.depth, rng);
    const auto b = randomDense(proxy.depth, tile_n, rng);

    auto p = runPasses(proxy.simPasses, "gemm", [&](std::uint64_t) {
        return mapGemm(a, b, cfg_);
    });
    p.scale(proxy.factor);
    p.add("offchipBytes",
          spmmOffchipBytes(static_cast<std::uint64_t>(m) * k, m, k, n,
                           proxy.passes));
    return p;
}

ExecutionProfile
CanonRunner::nmShape(std::int64_t m, std::int64_t k, std::int64_t n,
                     int nm_n, int nm_m, std::uint64_t seed,
                     const CanonRunOptions &opt) const
{
    const int tile_n = cfg_.cols * kSimdWidth;
    // The K tile must divide by rows and each slice by the pattern M.
    const ProxyPlan proxy = plan(m, k, n, cfg_.rows * nm_m, opt);

    Rng rng(seed);
    const auto a = nmStructured(proxy.rows, proxy.depth, nm_n, nm_m, rng);
    const auto b = randomDense(proxy.depth, tile_n, rng);

    auto p = runPasses(proxy.simPasses, "nm-spmm", [&](std::uint64_t) {
        return mapNmSpmm(a, b, nm_n, nm_m, cfg_);
    });
    p.scale(proxy.factor);
    const auto nnz = static_cast<std::uint64_t>(m) * k * nm_n / nm_m;
    p.add("offchipBytes", spmmOffchipBytes(nnz, m, k, n, proxy.passes));
    p.workload = "spmm-" + std::to_string(nm_n) + ":" +
                 std::to_string(nm_m);
    return p;
}

ExecutionProfile
CanonRunner::sddmmShape(std::int64_t m, std::int64_t k, std::int64_t n,
                        double mask_sparsity, std::uint64_t seed,
                        const CanonRunOptions &opt) const
{
    // N is the depth SDDMM tiles over the fabric rows; K runs as one
    // pass over the native K tile.
    const int kp = cfg_.cols * kSimdWidth;
    const ProxyPlan proxy = plan(m, n, kp, cfg_.rows, opt);

    Rng rng(seed);
    const auto a = randomDense(proxy.rows, kp, rng);
    const auto b = randomDense(kp, proxy.depth, rng);
    const auto mask =
        randomMask(proxy.rows, proxy.depth, mask_sparsity, rng);

    auto p = runPasses(proxy.simPasses, "sddmm", [&](std::uint64_t) {
        return mapSddmm(mask, a, b, cfg_);
    });
    // Work per mask position and per streamed A vector both scale
    // linearly in K (K/kp instruction repetitions), so the whole
    // profile scales.
    p.scale((static_cast<double>(m) / proxy.rows) *
            (static_cast<double>(k) / kp) *
            (static_cast<double>(n) / proxy.depth));
    const auto mask_nnz = static_cast<std::uint64_t>(
        static_cast<double>(m) * static_cast<double>(n) *
        (1.0 - mask_sparsity));
    p.add("offchipBytes", static_cast<std::uint64_t>(m) * k +
                              static_cast<std::uint64_t>(k) * n +
                              mask_nnz * 7);
    return p;
}

ExecutionProfile
CanonRunner::sddmmWindowShape(std::int64_t seq, std::int64_t k,
                              std::int64_t window, std::uint64_t seed,
                              const CanonRunOptions &opt) const
{
    // Section 4.1.3: sliding-window sparsity is *structured*, so the
    // generic masked mapping (which would concentrate the diagonal
    // band on one PE row at a time) is not used. Instead "the output
    // sparsity is decomposed into dense rows, where each row
    // corresponds to a vector-matrix multiplication" with the key
    // tile resident and shifted for perfect reuse -- i.e. a dense
    // (seq x k x window) product computing exactly the band, executed
    // through the register-cadence program.
    auto p = gemmShape(seq, k, window, seed, opt);
    p.activity.erase("offchipBytes");
    // Dense-stationary traffic: Q and K once, band scores out.
    p.add("offchipBytes",
          static_cast<std::uint64_t>(seq) * k * 2 +
              static_cast<std::uint64_t>(static_cast<double>(seq) *
                                         static_cast<double>(window)) *
                  4);
    p.workload = "sddmm-win";
    return p;
}

} // namespace canon
