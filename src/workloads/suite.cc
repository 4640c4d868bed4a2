#include "workloads/suite.hh"

#include <algorithm>
#include <cmath>

namespace canon
{

namespace
{

std::vector<std::int64_t>
sampleRowNnz(std::int64_t rows, std::int64_t k, double density,
             std::uint64_t seed)
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

ExecutionProfile
systolicProfile(const SystolicModel &model, const LayerSpec &l)
{
    switch (l.workload) {
      case Workload::Gemm:
        return model.gemm(l.m, l.k, l.n);
      case Workload::Spmm:
        return model.spmm(l.m, l.k, l.n, l.sparsity);
      case Workload::SpmmNm:
        // Only the 2:4 variant reads the pattern.
        return model.gemm(l.m, l.k, l.n, {l.nmN, l.nmM});
      case Workload::Sddmm:
        return model.sddmm(l.m, l.k, l.n, l.sparsity);
      case Workload::SddmmWindow:
        return model.sddmmWindow(l.m, l.k, l.window);
    }
    return {};
}

ExecutionProfile
zedProfile(const ZedModel &zed, const LayerSpec &l, std::uint64_t seed)
{
    const auto rows = static_cast<std::size_t>(l.m);
    switch (l.workload) {
      case Workload::Gemm:
        return zed.gemm(l.m, l.k, l.n);
      case Workload::Spmm:
        return zed.spmmRows(
            sampleRowNnz(l.m, l.k, 1.0 - l.sparsity, seed + 1), l.n);
      case Workload::SpmmNm:
        // ZeD treats structure as plain unstructured non-zeros: rows
        // are perfectly balanced at k*n/m non-zeros each.
        return zed.spmmRows(
            std::vector<std::int64_t>(rows, l.k * l.nmN / l.nmM), l.n);
      case Workload::Sddmm:
        return zed.sddmmRows(
            sampleRowNnz(l.m, l.n, 1.0 - l.sparsity, seed + 1), l.k);
      case Workload::SddmmWindow:
        // ZeD sees the band as an unstructured mask: `window` live
        // positions per row.
        return zed.sddmmRows(std::vector<std::int64_t>(rows, l.window),
                             l.k);
    }
    return {};
}

ExecutionProfile
cgraProfile(const CgraModel &cgra, const LayerSpec &l)
{
    switch (l.workload) {
      case Workload::Gemm:
        return cgra.gemm(l.m, l.k, l.n);
      case Workload::Spmm:
        return cgra.spmm(l.m, l.k, l.n, l.sparsity);
      case Workload::SpmmNm:
        return cgra.spmm(l.m, l.k, l.n,
                         1.0 - static_cast<double>(l.nmN) / l.nmM);
      case Workload::Sddmm:
        return cgra.sddmm(l.m, l.k, l.n, l.sparsity);
      case Workload::SddmmWindow:
        return cgra.sddmmWindow(l.m, l.k, l.window);
    }
    return {};
}

} // namespace

ArchSuite::ArchSuite(const CanonConfig &cfg, ArchSet archs)
    : canon_(cfg),
      systolic_(SystolicConfig{16, 16, SparsitySupport::Dense}),
      systolic24_(SystolicConfig{16, 16, SparsitySupport::TwoFour}),
      zed_(ZedConfig{}), cgra_(CgraConfig{}), archs_(archs)
{
}

CaseResult
ArchSuite::spmmBimodal(std::int64_t m, std::int64_t k, std::int64_t n,
                       double sparsity_a, double sparsity_b,
                       std::uint64_t seed) const
{
    const double avg = (sparsity_a + sparsity_b) / 2.0;

    CaseResult r;
    if (archs_.contains(Arch::Canon) || archs_.contains(Arch::Zed)) {
        // Build the skewed matrix at proxy size; both the Canon cycle
        // simulator and ZeD's row model consume the *same* population.
        const auto &cfg = canon_.config();
        const ProxyPlan proxy = canon_.plan(m, k, n, cfg.rows);
        Rng rng(seed);
        const auto csr = randomSparseBimodal(proxy.rows, proxy.depth,
                                             sparsity_a, sparsity_b, rng);

        if (archs_.contains(Arch::Canon)) {
            auto canon_p = canon_.spmmExact(
                csr, randomDense(proxy.depth, cfg.cols * kSimdWidth, rng));
            canon_p.scale(proxy.factor);
            canon_p.workload = "spmm-skewed";
            r[Arch::Canon] = canon_p;
        }

        if (archs_.contains(Arch::Zed)) {
            // ZeD holds the whole B (its banks are sized for it), so
            // it runs the full output width in one pass: scale only
            // the m/k proxying.
            auto zed_p = zed_.spmm(csr, n);
            zed_p.scale((static_cast<double>(m) / proxy.rows) *
                        (static_cast<double>(k) / proxy.depth));
            r[Arch::Zed] = zed_p;
        }
    }

    if (archs_.contains(Arch::Systolic))
        r[Arch::Systolic] = systolic_.spmm(m, k, n, avg);
    if (archs_.contains(Arch::Systolic24))
        r[Arch::Systolic24] = systolic24_.spmm(m, k, n, avg);
    if (archs_.contains(Arch::Cgra))
        r[Arch::Cgra] = cgra_.spmm(m, k, n, avg);
    return r;
}

CaseResult
ArchSuite::run(const LayerSpec &layer, std::uint64_t seed) const
{
    CaseResult r;
    if (archs_.contains(Arch::Canon))
        r[Arch::Canon] = canon_.run(layer, seed);
    if (archs_.contains(Arch::Systolic))
        r[Arch::Systolic] = systolicProfile(systolic_, layer);
    if (archs_.contains(Arch::Systolic24))
        r[Arch::Systolic24] = systolicProfile(systolic24_, layer);
    if (archs_.contains(Arch::Zed))
        r[Arch::Zed] = zedProfile(zed_, layer, seed);
    if (archs_.contains(Arch::Cgra))
        r[Arch::Cgra] = cgraProfile(cgra_, layer);
    return r;
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
