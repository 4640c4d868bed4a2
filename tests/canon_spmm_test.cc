/**
 * @file
 * End-to-end SpMM on the Canon fabric against the gold reference:
 * the central correctness property of the whole simulator. Sweeps
 * sparsity levels, scratchpad depths and array shapes with
 * parameterized tests; every comparison is exact INT32 equality.
 */

#include <gtest/gtest.h>

#include "core/fabric.hh"
#include "kernels/spmm.hh"
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

WordMatrix
runSpmm(const CsrMatrix &a, const DenseMatrix &b, const CanonConfig &cfg)
{
    CanonFabric fabric(cfg);
    fabric.load(mapSpmm(a, b, cfg));
    fabric.run();
    return fabric.result();
}

TEST(CanonSpmm, TinyDiagonal)
{
    const auto cfg = smallConfig();
    const int m = 4, k = 8, n = 16;
    DenseMatrix a(m, k);
    for (int i = 0; i < m; ++i)
        a.at(i, i) = static_cast<Elem>(i + 1);
    Rng rng(1);
    const auto b = randomDense(k, n, rng);
    const auto csr = CsrMatrix::fromDense(a);

    EXPECT_EQ(runSpmm(csr, b, cfg), reference::spmm(csr, b));
}

TEST(CanonSpmm, SingleRowManyNnz)
{
    const auto cfg = smallConfig();
    Rng rng(2);
    const auto a = randomSparse(1, 16, 0.2, rng);
    const auto b = randomDense(16, 16, rng);
    const auto csr = CsrMatrix::fromDense(a);

    EXPECT_EQ(runSpmm(csr, b, cfg), reference::spmm(csr, b));
}

TEST(CanonSpmm, EmptyMatrix)
{
    const auto cfg = smallConfig();
    Rng rng(3);
    const DenseMatrix a(8, 16); // all zeros
    const auto b = randomDense(16, 16, rng);
    const auto csr = CsrMatrix::fromDense(a);

    const auto c = runSpmm(csr, b, cfg);
    EXPECT_EQ(c, WordMatrix(8, 16));
}

TEST(CanonSpmm, DenseViaSpmm)
{
    const auto cfg = smallConfig();
    Rng rng(4);
    const auto a = randomDense(12, 16, rng);
    const auto b = randomDense(16, 16, rng);

    CanonFabric fabric(cfg);
    fabric.load(mapSpmm(CsrMatrix::fromDense(a), b, cfg));
    fabric.run();
    EXPECT_EQ(fabric.result(), reference::gemm(a, b));
}

struct SweepParam
{
    double sparsity;
    int spad;
    int rows;
    int cols;
    int m;
    int k;
    std::uint64_t seed;
};

class SpmmSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(SpmmSweep, MatchesReference)
{
    const auto p = GetParam();
    const auto cfg = smallConfig(p.rows, p.cols, p.spad);
    Rng rng(p.seed);
    const auto a = randomSparse(p.m, p.k, p.sparsity, rng);
    const auto b = randomDense(p.k, cfg.cols * kSimdWidth, rng);
    const auto csr = CsrMatrix::fromDense(a);

    EXPECT_EQ(runSpmm(csr, b, cfg), reference::spmm(csr, b))
        << "sparsity=" << p.sparsity << " spad=" << p.spad;
}

INSTANTIATE_TEST_SUITE_P(
    SparsityLevels, SpmmSweep,
    ::testing::Values(
        SweepParam{0.0, 4, 4, 4, 16, 16, 10},
        SweepParam{0.1, 4, 4, 4, 16, 16, 11},
        SweepParam{0.3, 4, 4, 4, 24, 16, 12},
        SweepParam{0.5, 4, 4, 4, 24, 16, 13},
        SweepParam{0.7, 4, 4, 4, 32, 16, 14},
        SweepParam{0.9, 4, 4, 4, 32, 16, 15},
        SweepParam{0.95, 4, 4, 4, 48, 32, 16}));

INSTANTIATE_TEST_SUITE_P(
    SpadDepths, SpmmSweep,
    ::testing::Values(
        SweepParam{0.6, 1, 4, 4, 24, 16, 20},
        SweepParam{0.6, 2, 4, 4, 24, 16, 21},
        SweepParam{0.6, 8, 4, 4, 24, 16, 22},
        SweepParam{0.6, 16, 4, 4, 24, 16, 23},
        SweepParam{0.6, 64, 4, 4, 24, 16, 24}));

INSTANTIATE_TEST_SUITE_P(
    ArrayShapes, SpmmSweep,
    ::testing::Values(
        SweepParam{0.5, 4, 2, 2, 16, 8, 30},
        SweepParam{0.5, 4, 8, 8, 32, 32, 31},
        SweepParam{0.5, 4, 2, 8, 16, 16, 32},
        SweepParam{0.5, 4, 8, 2, 16, 32, 33},
        SweepParam{0.5, 4, 1, 4, 16, 8, 34}));

TEST(CanonSpmm, PaperConfigModerate)
{
    const auto cfg = CanonConfig::paper();
    Rng rng(42);
    const auto a = randomSparse(64, 64, 0.6, rng);
    const auto b = randomDense(64, cfg.cols * kSimdWidth, rng);
    const auto csr = CsrMatrix::fromDense(a);

    EXPECT_EQ(runSpmm(csr, b, cfg), reference::spmm(csr, b));
}

TEST(CanonSpmm, UtilizationDropsWithSparsityImbalance)
{
    // At equal nnz-work, a deeper scratchpad should never hurt and at
    // high sparsity should help (Figure 17's qualitative shape).
    Rng rng(77);
    const auto a = randomSparse(96, 32, 0.8, rng);
    const auto b = randomDense(32, 16, rng);
    const auto csr = CsrMatrix::fromDense(a);

    auto run_cycles = [&](int spad) {
        const auto cfg = smallConfig(4, 4, spad);
        CanonFabric fabric(cfg);
        fabric.load(mapSpmm(csr, b, cfg));
        return fabric.run();
    };

    const auto deep = run_cycles(16);
    const auto shallow = run_cycles(1);
    EXPECT_LE(deep, shallow);
}

} // namespace
} // namespace canon
