/**
 * @file
 * Dense GEMM and N:M structured-sparse SpMM on the Canon fabric: the
 * register-ring cadence program (no scratchpad involvement), including
 * the systolic-style merge behaviour and the paper's claim that the
 * cadence path executes in nnz-proportional time.
 */

#include <gtest/gtest.h>

#include "core/fabric.hh"
#include "kernels/dense_cadence.hh"
#include "sparse/generate.hh"
#include "sparse/reference.hh"

namespace canon
{
namespace
{

CanonConfig
smallConfig(int rows = 4, int cols = 4, int spad = 4)
{
    CanonConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.spadEntries = spad;
    return cfg;
}

TEST(CanonGemm, TinyExact)
{
    const auto cfg = smallConfig();
    Rng rng(1);
    const auto a = randomDense(8, 16, rng);
    const auto b = randomDense(16, 16, rng);

    CanonFabric fabric(cfg);
    fabric.load(mapGemm(a, b, cfg));
    fabric.run();
    EXPECT_EQ(fabric.result(), reference::gemm(a, b));
}

TEST(CanonGemm, TallMatrix)
{
    const auto cfg = smallConfig();
    Rng rng(2);
    const auto a = randomDense(64, 16, rng);
    const auto b = randomDense(16, 16, rng);

    CanonFabric fabric(cfg);
    fabric.load(mapGemm(a, b, cfg));
    fabric.run();
    EXPECT_EQ(fabric.result(), reference::gemm(a, b));
}

TEST(CanonGemm, PaperConfig)
{
    const auto cfg = CanonConfig::paper();
    Rng rng(3);
    const auto a = randomDense(48, 64, rng);
    const auto b = randomDense(64, 32, rng);

    CanonFabric fabric(cfg);
    fabric.load(mapGemm(a, b, cfg));
    fabric.run();
    EXPECT_EQ(fabric.result(), reference::gemm(a, b));
}

TEST(CanonGemm, NoScratchpadTraffic)
{
    // Figure 11: GEMM power shows no scratchpad component -- the
    // cadence program never touches it.
    const auto cfg = smallConfig();
    Rng rng(4);
    const auto a = randomDense(16, 16, rng);
    const auto b = randomDense(16, 16, rng);

    CanonFabric fabric(cfg);
    fabric.load(mapGemm(a, b, cfg));
    fabric.run();
    EXPECT_EQ(fabric.stats().sumCounter("spadReads"), 0u);
    EXPECT_EQ(fabric.stats().sumCounter("spadWrites"), 0u);
}

TEST(CanonGemm, HighUtilization)
{
    // Dense streaming should approach H/(H+2) lane utilization.
    const auto cfg = smallConfig();
    Rng rng(5);
    const auto a = randomDense(64, 16, rng);
    const auto b = randomDense(16, 16, rng);

    CanonFabric fabric(cfg);
    fabric.load(mapGemm(a, b, cfg));
    fabric.run();
    EXPECT_GT(fabric.profile("gemm").utilization(cfg.numPes() * kSimdWidth),
              0.5);
}

struct NmParam
{
    int n;
    int m;
    int rows_a;
    int k;
    std::uint64_t seed;
};

class NmSweep : public ::testing::TestWithParam<NmParam>
{
};

TEST_P(NmSweep, MatchesReference)
{
    const auto p = GetParam();
    const auto cfg = smallConfig();
    Rng rng(p.seed);
    const auto a = nmStructured(p.rows_a, p.k, p.n, p.m, rng);
    const auto b = randomDense(p.k, 16, rng);

    CanonFabric fabric(cfg);
    fabric.load(mapNmSpmm(a, b, p.n, p.m, cfg));
    fabric.run();
    EXPECT_EQ(fabric.result(),
              reference::spmm(CsrMatrix::fromDense(a), b));
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, NmSweep,
    ::testing::Values(NmParam{2, 4, 16, 16, 40},
                      NmParam{2, 8, 16, 32, 41},
                      NmParam{1, 4, 24, 32, 42},
                      NmParam{4, 8, 16, 32, 43},
                      NmParam{1, 8, 32, 32, 44}));

TEST(CanonNm, TwoFourTwiceAsFastAsDense)
{
    // Section 6.2: Canon exploits the 2:4 structure, halving cycles
    // versus the same shapes dense.
    const auto cfg = smallConfig();
    Rng rng(6);
    const int m_rows = 48, k = 64;
    const auto dense = randomDense(m_rows, k, rng);
    const auto sparse24 = nmStructured(m_rows, k, 2, 4, rng);
    const auto b = randomDense(k, 16, rng);

    CanonFabric dense_fab(cfg);
    dense_fab.load(mapGemm(dense, b, cfg));
    const auto dense_cycles = dense_fab.run();

    CanonFabric nm_fab(cfg);
    nm_fab.load(mapNmSpmm(sparse24, b, 2, 4, cfg));
    const auto nm_cycles = nm_fab.run();

    EXPECT_LT(nm_cycles, dense_cycles * 0.62)
        << "2:4 should run close to half the dense cycles";
    EXPECT_GT(nm_cycles, dense_cycles * 0.38);
}

} // namespace
} // namespace canon
