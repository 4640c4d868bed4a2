#include "baselines/systolic.hh"

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace canon
{

SystolicSim::SystolicSim(const SystolicConfig &cfg) : cfg_(cfg)
{
    panicIf(cfg_.rows <= 0 || cfg_.cols <= 0,
            "SystolicSim: bad array shape");
}

void
SystolicSim::run(const DenseMatrix &a, const DenseMatrix &b)
{
    panicIf(a.cols() != b.rows(), "SystolicSim: shape mismatch");
    const int m_dim = a.rows();
    const int k_dim = a.cols();
    const int n_dim = b.cols();
    const int rows = cfg_.rows;
    const int cols = cfg_.cols;

    c_ = WordMatrix(m_dim, n_dim);
    cycles_ = static_cast<Cycle>(rows); // initial weight-tile load

    std::vector<std::vector<Word>> w(rows, std::vector<Word>(cols));
    std::vector<std::vector<Word>> a_reg(rows,
                                         std::vector<Word>(cols, 0));
    std::vector<std::vector<Word>> p_reg(rows,
                                         std::vector<Word>(cols, 0));

    for (int n0 = 0; n0 < n_dim; n0 += cols) {
        for (int k0 = 0; k0 < k_dim; k0 += rows) {
            // Weight-stationary tile (zero padded at the edges);
            // loading overlaps the previous tile's drain
            // (double-buffered), so only the first load costs cycles.
            for (int r = 0; r < rows; ++r)
                for (int c = 0; c < cols; ++c)
                    w[r][c] = (k0 + r < k_dim && n0 + c < n_dim)
                                  ? b.at(k0 + r, n0 + c)
                                  : 0;
            for (auto &row : a_reg)
                std::fill(row.begin(), row.end(), 0);
            for (auto &row : p_reg)
                std::fill(row.begin(), row.end(), 0);

            const int tile_cycles = m_dim + rows + cols - 2;
            for (int t = 0; t < tile_cycles; ++t) {
                // Evaluate from the south-east corner so each PE sees
                // its neighbours' previous-cycle registers.
                for (int r = rows - 1; r >= 0; --r) {
                    for (int c = cols - 1; c >= 0; --c) {
                        const Word a_in =
                            c == 0 ? ((t - r >= 0 && t - r < m_dim &&
                                       k0 + r < k_dim)
                                          ? static_cast<Word>(
                                                a.at(t - r, k0 + r))
                                          : 0)
                                   : a_reg[r][c - 1];
                        const Word p_in = r == 0 ? 0 : p_reg[r - 1][c];
                        const Word p_out = p_in + w[r][c] * a_in;
                        // Shift into this PE's registers (safe order:
                        // consumers to the SE already read them).
                        a_reg[r][c] = a_in;
                        p_reg[r][c] = p_out;
                        if (r == rows - 1) {
                            const int m = t - (rows - 1) - c;
                            if (m >= 0 && m < m_dim && n0 + c < n_dim)
                                c_.at(m, n0 + c) += p_out;
                        }
                    }
                }
            }
            cycles_ += static_cast<Cycle>(tile_cycles);
        }
    }
}

Cycle
SystolicModel::gemmCycles(std::int64_t m, std::int64_t k,
                          std::int64_t n) const
{
    const auto ktiles = divCeil(static_cast<std::uint64_t>(k),
                                static_cast<std::uint64_t>(cfg_.rows));
    const auto ntiles = divCeil(static_cast<std::uint64_t>(n),
                                static_cast<std::uint64_t>(cfg_.cols));
    return static_cast<Cycle>(cfg_.rows) +
           ktiles * ntiles *
               static_cast<Cycle>(m + cfg_.rows + cfg_.cols - 2);
}

ExecutionProfile
SystolicModel::gemm(std::int64_t m, std::int64_t k, std::int64_t n,
                    std::pair<int, int> input_nm) const
{
    ExecutionProfile p;
    p.peCount = static_cast<std::uint64_t>(cfg_.numMacs());

    std::int64_t k_eff = k;
    std::uint64_t useful =
        static_cast<std::uint64_t>(m) * k * n;
    if (cfg_.sparsity == SparsitySupport::TwoFour &&
        input_nm.second > 0 &&
        2 * input_nm.first <= input_nm.second) {
        // Any <=2-per-4-expressible pattern compresses to the 2:4
        // format: effective K halves regardless of deeper sparsity.
        k_eff = (k + 1) / 2;
        useful = static_cast<std::uint64_t>(m) * n *
                 (static_cast<std::uint64_t>(k) * input_nm.first /
                  input_nm.second);
        p.add(Activity::NmSelectOps,
              static_cast<std::uint64_t>(m) * k_eff * n);
    }

    p.cycles = gemmCycles(m, k_eff, n);
    p.add(Activity::LaneMacs, useful);

    const auto ktiles = divCeil(static_cast<std::uint64_t>(k_eff),
                                static_cast<std::uint64_t>(cfg_.rows));
    const auto ntiles = divCeil(static_cast<std::uint64_t>(n),
                                static_cast<std::uint64_t>(cfg_.cols));
    // Energy-active MAC slots: every PE switches while a tile streams,
    // and its A/psum shift registers move every one of those cycles.
    p.add(Activity::MacSlots, ktiles * ntiles * static_cast<std::uint64_t>(m) *
                          cfg_.numMacs());
    p.add(Activity::ShiftOps, p.get(Activity::MacSlots));
    // Edge SRAM traffic: activations re-read per n-tile, weights once
    // per tile, psums spilled/merged across k-tiles.
    p.add(Activity::EdgeSramReads,
          ntiles * ktiles * static_cast<std::uint64_t>(m) * cfg_.rows +
              static_cast<std::uint64_t>(k_eff) * n +
              static_cast<std::uint64_t>(m) * n * (ktiles - 1));
    p.add(Activity::EdgeSramWrites,
          static_cast<std::uint64_t>(m) * n * ktiles);
    return p;
}

ExecutionProfile
SystolicModel::spmm(std::int64_t m, std::int64_t k, std::int64_t n,
                    double, std::pair<int, int> input_nm) const
{
    // No sparse datapath: unstructured sparse inputs run dense.
    auto p = gemm(m, k, n, input_nm);
    p.workload = "spmm";
    return p;
}

ExecutionProfile
SystolicModel::sddmm(std::int64_t m, std::int64_t k, std::int64_t n,
                     double) const
{
    // Output sparsity cannot be exploited either: full dense product.
    auto p = gemm(m, k, n);
    p.workload = "sddmm";
    return p;
}

ExecutionProfile
SystolicModel::sddmmWindow(std::int64_t seq, std::int64_t k,
                           std::int64_t window) const
{
    // Sliding-chunk conversion (Longformer): query chunks of size w
    // (= the window) each multiply against a 2w key range so every
    // query's full band is covered -- twice the band's useful work.
    const std::int64_t w = std::max<std::int64_t>(window, 1);
    const auto chunks = divCeil(static_cast<std::uint64_t>(seq),
                                static_cast<std::uint64_t>(w));
    ExecutionProfile total;
    total.workload = "sddmm-win";
    total.peCount = static_cast<std::uint64_t>(cfg_.numMacs());
    const auto chunk = gemm(w, k, 2 * w);
    for (std::uint64_t i = 0; i < chunks; ++i)
        total.accumulate(chunk);
    return total;
}

} // namespace canon
