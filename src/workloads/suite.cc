#include "workloads/suite.hh"

#include <cmath>

namespace canon
{

ArchSuite::ArchSuite(const CanonConfig &cfg) : ArchSuite(cfg, {}) {}

ArchSuite::ArchSuite(const CanonConfig &cfg,
                     const std::vector<std::string> &archs)
    : canon_(cfg),
      systolic_(SystolicConfig{16, 16, SparsitySupport::Dense}),
      systolic24_(SystolicConfig{16, 16, SparsitySupport::TwoFour}),
      zed_(ZedConfig{}), cgra_(CgraConfig{}),
      archs_(archs.begin(), archs.end())
{
}

std::vector<std::int64_t>
ArchSuite::sampleRowNnz(std::int64_t rows, std::int64_t k,
                        double density, std::uint64_t seed) const
{
    Rng rng(seed);
    std::vector<std::int64_t> nnz;
    nnz.reserve(static_cast<std::size_t>(rows));
    if (k <= 2048) {
        for (std::int64_t r = 0; r < rows; ++r) {
            std::int64_t c = 0;
            for (std::int64_t i = 0; i < k; ++i)
                if (rng.nextBool(density))
                    ++c;
            nnz.push_back(c);
        }
        return nnz;
    }
    // Normal approximation of Binomial(k, density) for large k.
    const double mean = static_cast<double>(k) * density;
    const double sd = std::sqrt(mean * (1.0 - density));
    for (std::int64_t r = 0; r < rows; ++r) {
        const double u1 = std::max(rng.nextDouble(), 1e-12);
        const double u2 = rng.nextDouble();
        const double z = std::sqrt(-2.0 * std::log(u1)) *
                         std::cos(2.0 * M_PI * u2);
        const double v = std::round(mean + sd * z);
        nnz.push_back(static_cast<std::int64_t>(
            std::clamp(v, 0.0, static_cast<double>(k))));
    }
    return nnz;
}

CaseResult
ArchSuite::gemm(std::int64_t m, std::int64_t k, std::int64_t n,
                std::uint64_t seed) const
{
    CaseResult r;
    if (enabled("canon"))
        r["canon"] = canon_.gemmShape(m, k, n, seed);
    if (enabled("systolic"))
        r["systolic"] = systolic_.gemm(m, k, n);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.gemm(m, k, n);
    if (enabled("zed"))
        r["zed"] = zed_.gemm(m, k, n);
    if (enabled("cgra"))
        r["cgra"] = cgra_.gemm(m, k, n);
    return r;
}

CaseResult
ArchSuite::spmm(std::int64_t m, std::int64_t k, std::int64_t n,
                double sparsity, std::uint64_t seed) const
{
    CaseResult r;
    if (enabled("canon"))
        r["canon"] = canon_.spmmShape(m, k, n, sparsity, seed);
    if (enabled("systolic"))
        r["systolic"] = systolic_.spmm(m, k, n, sparsity);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.spmm(m, k, n, sparsity);
    if (enabled("zed"))
        r["zed"] = zed_.spmmRows(
            sampleRowNnz(m, k, 1.0 - sparsity, seed + 1), n);
    if (enabled("cgra"))
        r["cgra"] = cgra_.spmm(m, k, n, sparsity);
    return r;
}

CaseResult
ArchSuite::spmmBimodal(std::int64_t m, std::int64_t k, std::int64_t n,
                       double sparsity_a, double sparsity_b,
                       std::uint64_t seed) const
{
    const double avg = (sparsity_a + sparsity_b) / 2.0;

    CaseResult r;
    if (enabled("canon") || enabled("zed")) {
        // Build the skewed matrix at proxy size; both the Canon cycle
        // simulator and ZeD's row model consume the *same* population.
        const auto &cfg = canon_.config();
        const ProxyPlan proxy = canon_.plan(m, k, n, cfg.rows);
        Rng rng(seed);
        const auto csr = CsrMatrix::fromDense(randomSparseBimodal(
            proxy.rows, proxy.depth, sparsity_a, sparsity_b, rng));

        if (enabled("canon")) {
            auto canon_p = canon_.spmmExact(
                csr, randomDense(proxy.depth, cfg.cols * kSimdWidth, rng));
            canon_p.scale(proxy.factor);
            canon_p.workload = "spmm-skewed";
            r["canon"] = canon_p;
        }

        if (enabled("zed")) {
            // ZeD holds the whole B (its banks are sized for it), so
            // it runs the full output width in one pass: scale only
            // the m/k proxying.
            std::vector<std::int64_t> rows;
            rows.reserve(static_cast<std::size_t>(proxy.rows));
            for (int i = 0; i < csr.rows(); ++i)
                rows.push_back(csr.rowNnz(i));
            auto zed_p = zed_.spmmRows(rows, n);
            zed_p.scale((static_cast<double>(m) / proxy.rows) *
                        (static_cast<double>(k) / proxy.depth));
            r["zed"] = zed_p;
        }
    }

    if (enabled("systolic"))
        r["systolic"] = systolic_.spmm(m, k, n, avg);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.spmm(m, k, n, avg);
    if (enabled("cgra"))
        r["cgra"] = cgra_.spmm(m, k, n, avg);
    return r;
}

CaseResult
ArchSuite::spmmNm(std::int64_t m, std::int64_t k, std::int64_t n,
                  int nm_n, int nm_m, std::uint64_t seed) const
{
    CaseResult r;
    if (enabled("canon"))
        r["canon"] = canon_.nmShape(m, k, n, nm_n, nm_m, seed);
    if (enabled("systolic"))
        r["systolic"] = systolic_.gemm(m, k, n);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.gemm(m, k, n, {nm_n, nm_m});
    if (enabled("zed")) {
        // ZeD treats structure as plain unstructured non-zeros: rows
        // are perfectly balanced at k*n/m non-zeros each.
        std::vector<std::int64_t> rows(
            static_cast<std::size_t>(m),
            static_cast<std::int64_t>(k) * nm_n / nm_m);
        r["zed"] = zed_.spmmRows(rows, n);
    }
    if (enabled("cgra"))
        r["cgra"] = cgra_.spmm(m, k, n,
                               1.0 - static_cast<double>(nm_n) / nm_m);
    return r;
}

CaseResult
ArchSuite::sddmm(std::int64_t m, std::int64_t k, std::int64_t n,
                 double mask_sparsity, std::uint64_t seed) const
{
    CaseResult r;
    if (enabled("canon"))
        r["canon"] = canon_.sddmmShape(m, k, n, mask_sparsity, seed);
    if (enabled("systolic"))
        r["systolic"] = systolic_.sddmm(m, k, n, mask_sparsity);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.sddmm(m, k, n, mask_sparsity);
    if (enabled("zed"))
        r["zed"] = zed_.sddmmRows(
            sampleRowNnz(m, n, 1.0 - mask_sparsity, seed + 1), k);
    if (enabled("cgra"))
        r["cgra"] = cgra_.sddmm(m, k, n, mask_sparsity);
    return r;
}

CaseResult
ArchSuite::sddmmWindow(std::int64_t seq, std::int64_t k,
                       std::int64_t window, std::uint64_t seed) const
{
    CaseResult r;
    if (enabled("canon"))
        r["canon"] = canon_.sddmmWindowShape(seq, k, window, seed);
    if (enabled("systolic"))
        r["systolic"] = systolic_.sddmmWindow(seq, k, window);
    if (enabled("systolic24"))
        r["systolic24"] = systolic24_.sddmmWindow(seq, k, window);
    if (enabled("zed")) {
        // ZeD sees the band as an unstructured mask: `window` live
        // positions per row.
        std::vector<std::int64_t> rows(static_cast<std::size_t>(seq),
                                       window);
        r["zed"] = zed_.sddmmRows(rows, k);
    }
    if (enabled("cgra"))
        r["cgra"] = cgra_.sddmmWindow(seq, k, window);
    return r;
}

CaseResult
ArchSuite::run(const LayerSpec &layer, std::uint64_t seed) const
{
    switch (layer.workload) {
      case Workload::Gemm:
        return gemm(layer.m, layer.k, layer.n, seed);
      case Workload::Spmm:
        return spmm(layer.m, layer.k, layer.n, layer.sparsity, seed);
      case Workload::SpmmNm:
        return spmmNm(layer.m, layer.k, layer.n, layer.nmN, layer.nmM,
                      seed);
      case Workload::Sddmm:
        return sddmm(layer.m, layer.k, layer.n, layer.sparsity, seed);
      case Workload::SddmmWindow:
        return sddmmWindow(layer.m, layer.k, layer.window, seed);
    }
    return {};
}

CaseResult
ArchSuite::model(const ModelSpec &spec, std::uint64_t seed) const
{
    CaseResult total;
    std::uint64_t salt = seed;
    for (const auto &layer : spec.layers) {
        for (auto &[arch, profile] : run(layer, salt)) {
            profile.scale(layer.repeats);
            auto it = total.find(arch);
            if (it == total.end()) {
                profile.workload = spec.name;
                total.emplace(arch, std::move(profile));
            } else {
                it->second.accumulate(profile);
            }
        }
        ++salt;
    }
    return total;
}

} // namespace canon
