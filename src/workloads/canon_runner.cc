#include "workloads/canon_runner.hh"

#include <algorithm>
#include <utility>

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
proxyRowCap(const CanonConfig &cfg)
{
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
                  int quantum) const
{
    const std::int64_t cap =
        static_cast<std::int64_t>(cfg_.rows) * cfg_.dmemSlots;
    std::int64_t d = roundUp(std::min(depth, cap), quantum);
    if (d > cap)
        d -= quantum;

    ProxyPlan p;
    p.rows = static_cast<int>(
        std::min<std::int64_t>(m, proxyRowCap(cfg_)));
    p.depth = static_cast<int>(std::max<std::int64_t>(d, quantum));
    p.passes = divCeil(static_cast<std::uint64_t>(n),
                       static_cast<std::uint64_t>(cfg_.cols) * kSimdWidth);
    p.factor = (static_cast<double>(m) / p.rows) *
               (static_cast<double>(depth) / p.depth) *
               static_cast<double>(p.passes);
    return p;
}

ExecutionProfile
CanonRunner::runFabric(KernelMapping mapping,
                       const std::string &kernel) const
{
    CanonFabric fabric(cfg_);
    fabric.load(std::move(mapping));
    fabric.runForProfile();
    return fabric.profile(kernel);
}

KernelMapping
drawSpmm(int rows, int depth, double sparsity, Rng &rng,
         const CanonConfig &cfg, std::size_t &nnz)
{
    auto a_rows = sparseRows(depth, sparsity, rng); // checks sparsity
    SpmmSlicer slicer(rows, depth, cfg,
                      static_cast<double>(rows) * depth * (1.0 - sparsity));
    slicer.deal(a_rows);
    nnz = slicer.nnz();
    return std::move(slicer).map(
        randomDense(depth, cfg.cols * kSimdWidth, rng));
}

ExecutionProfile
CanonRunner::spmmExact(const CsrMatrix &a, const DenseMatrix &b) const
{
    auto p = runFabric(mapSpmm(a, b, cfg_), "spmm");
    p.add(Activity::OffchipBytes,
          spmmOffchipBytes(a.nnz(), a.rows(), b.rows(), b.cols(), 1));
    return p;
}

ExecutionProfile
CanonRunner::run(const LayerSpec &l, std::uint64_t seed) const
{
    const int tile_n = cfg_.cols * kSimdWidth;
    const auto m = static_cast<std::uint64_t>(l.m);
    const auto k = static_cast<std::uint64_t>(l.k);
    Rng rng(seed);

    switch (l.workload) {
      case Workload::Spmm: {
        const ProxyPlan proxy = plan(l.m, l.k, l.n, cfg_.rows);
        std::size_t nnz = 0;
        auto p = runFabric(drawSpmm(proxy.rows, proxy.depth, l.sparsity,
                                    rng, cfg_, nnz),
                           "spmm");
        // The proxy's own off-chip traffic, as spmmExact records it,
        // then scales with the rest of the profile.
        p.add(Activity::OffchipBytes,
              spmmOffchipBytes(nnz, proxy.rows, proxy.depth, tile_n, 1));
        p.scale(proxy.factor);
        return p;
      }
      case Workload::Gemm:
      case Workload::SddmmWindow: {
        // Section 4.1.3: sliding-window sparsity is *structured*, so
        // the generic masked mapping (which would concentrate the
        // diagonal band on one PE row at a time) is not used. "The
        // output sparsity is decomposed into dense rows, where each
        // row corresponds to a vector-matrix multiplication" with the
        // key tile resident and shifted for perfect reuse -- a dense
        // (m x k x window) product through the register-cadence
        // program.
        const bool window = l.workload == Workload::SddmmWindow;
        const std::int64_t n = window ? l.window : l.n;
        const ProxyPlan proxy = plan(l.m, l.k, n, cfg_.rows);
        const auto a = randomDense(proxy.rows, proxy.depth, rng);
        const auto b = randomDense(proxy.depth, tile_n, rng);
        auto p = runFabric(mapGemm(a, b, cfg_), "gemm");
        p.scale(proxy.factor);
        if (!window) {
            p.add(Activity::OffchipBytes,
                  spmmOffchipBytes(m * k, l.m, l.k, n, proxy.passes));
            return p;
        }
        // Dense-stationary traffic: Q and K once, band scores out.
        p.add(Activity::OffchipBytes,
              m * k * 2 + m * static_cast<std::uint64_t>(n) * 4);
        p.workload = "sddmm-win";
        return p;
      }
      case Workload::SpmmNm: {
        // The K tile must divide by rows and each slice by the
        // pattern M.
        const ProxyPlan proxy =
            plan(l.m, l.k, l.n, cfg_.rows * l.nmM);
        const auto a =
            nmStructured(proxy.rows, proxy.depth, l.nmN, l.nmM, rng);
        const auto b = randomDense(proxy.depth, tile_n, rng);
        auto p = runFabric(mapNmSpmm(a, b, l.nmN, l.nmM, cfg_), "nm-spmm");
        p.scale(proxy.factor);
        p.add(Activity::OffchipBytes,
              spmmOffchipBytes(m * k * l.nmN / l.nmM, l.m, l.k, l.n,
                               proxy.passes));
        p.workload = "spmm-" + std::to_string(l.nmN) + ":" +
                     std::to_string(l.nmM);
        return p;
      }
      case Workload::Sddmm: {
        // N is the depth SDDMM tiles over the fabric rows; K runs as
        // one pass over the native K tile.
        const ProxyPlan proxy = plan(l.m, l.n, tile_n, cfg_.rows);
        const auto a = randomDense(proxy.rows, tile_n, rng);
        const auto b = randomDense(tile_n, proxy.depth, rng);
        const auto mask =
            randomMask(proxy.rows, proxy.depth, l.sparsity, rng);
        auto p = runFabric(mapSddmm(mask, a, b, cfg_), "sddmm");
        // Work per mask position and per streamed A vector both scale
        // linearly in K (K/tile_n instruction repetitions), so the
        // whole profile scales.
        p.scale((static_cast<double>(l.m) / proxy.rows) *
                (static_cast<double>(l.k) / tile_n) *
                (static_cast<double>(l.n) / proxy.depth));
        const auto mask_nnz = static_cast<std::uint64_t>(
            static_cast<double>(l.m) * static_cast<double>(l.n) *
            (1.0 - l.sparsity));
        p.add(Activity::OffchipBytes,
              m * k + k * static_cast<std::uint64_t>(l.n) + mask_nnz * 7);
        return p;
      }
    }
    return {};
}

} // namespace canon
