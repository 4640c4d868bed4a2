/**
 * @file
 * Sparse substrate tests: container invariants, generator structure
 * properties (parameterized sweeps), and reference-kernel identities
 * (SpMM == GEMM on densified input, SDDMM == masked GEMM).
 */

#include <gtest/gtest.h>

#include "sparse/generate.hh"
#include "sparse/preprocess.hh"
#include "sparse/reference.hh"

namespace canon
{
namespace
{

TEST(Matrix, DenseBasics)
{
    DenseMatrix m(3, 4);
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 4);
    EXPECT_EQ(m.countNonZero(), 0u);
    m.at(2, 3) = 5;
    EXPECT_EQ(m.countNonZero(), 1u);
    EXPECT_NEAR(m.sparsity(), 11.0 / 12.0, 1e-12);
    EXPECT_THROW(m.at(3, 0), PanicError);
    EXPECT_THROW(m.at(0, 4), PanicError);
}

TEST(Matrix, CsrRoundTrip)
{
    Rng rng(1);
    const auto d = randomSparse(13, 17, 0.6, rng);
    const auto csr = CsrMatrix::fromDense(d);
    EXPECT_EQ(csr.nnz(), d.countNonZero());
    EXPECT_EQ(csr.toDense(), d);
}

TEST(Matrix, CsrAppendOrderEnforced)
{
    CsrMatrix m(4, 4);
    m.append(1, 2, 5);
    EXPECT_THROW(m.append(0, 0, 1), PanicError); // row went backwards
    EXPECT_THROW(m.append(1, 2, 1), PanicError); // column not ascending
    EXPECT_THROW(m.append(1, 1, 1), PanicError);
    EXPECT_NO_THROW(m.append(1, 3, 1));
    EXPECT_NO_THROW(m.append(3, 0, 1)); // skipping rows is fine
    EXPECT_EQ(m.rowNnz(1), 2);
    EXPECT_EQ(m.rowNnz(2), 0);
    EXPECT_EQ(m.rowNnz(3), 1);
}

TEST(Matrix, CsrRejectsExplicitZero)
{
    CsrMatrix m(2, 2);
    EXPECT_THROW(m.append(0, 0, 0), PanicError);
}

struct GenParam
{
    int rows, cols;
    double sparsity;
    std::uint64_t seed;
};

class SparsitySweep : public ::testing::TestWithParam<GenParam>
{
};

TEST_P(SparsitySweep, DensityNearTarget)
{
    const auto p = GetParam();
    Rng rng(p.seed);
    const auto m = randomSparse(p.rows, p.cols, p.sparsity, rng);
    EXPECT_NEAR(m.sparsity(), p.sparsity, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Levels, SparsitySweep,
    ::testing::Values(GenParam{64, 64, 0.1, 1}, GenParam{64, 64, 0.3, 2},
                      GenParam{64, 64, 0.5, 3}, GenParam{64, 64, 0.7, 4},
                      GenParam{64, 64, 0.9, 5},
                      GenParam{128, 32, 0.95, 6}));

struct NmGenParam
{
    int n, m;
    std::uint64_t seed;
};

class NmStructure : public ::testing::TestWithParam<NmGenParam>
{
};

TEST_P(NmStructure, ExactPerGroup)
{
    const auto p = GetParam();
    Rng rng(p.seed);
    const auto mat = nmStructured(16, 32, p.n, p.m, rng);
    EXPECT_TRUE(conformsToNm(mat, p.n, p.m));
    // The generator produces *exactly* n per group.
    EXPECT_EQ(mat.countNonZero(),
              static_cast<std::size_t>(16 * (32 / p.m) * p.n));
}

INSTANTIATE_TEST_SUITE_P(Patterns, NmStructure,
                         ::testing::Values(NmGenParam{2, 4, 1},
                                           NmGenParam{2, 8, 2},
                                           NmGenParam{1, 4, 3},
                                           NmGenParam{4, 8, 4},
                                           NmGenParam{1, 2, 5}));

TEST(Generate, ConformsRejectsViolations)
{
    DenseMatrix m(1, 8);
    m.at(0, 0) = 1;
    m.at(0, 1) = 1;
    m.at(0, 2) = 1; // three in the first group of 4
    EXPECT_FALSE(conformsToNm(m, 2, 4));
    EXPECT_TRUE(conformsToNm(m, 3, 4));
}

TEST(Generate, SlidingWindowBand)
{
    const auto mask = slidingWindowMask(16, 16, 4);
    for (int i = 0; i < 16; ++i) {
        for (int j = 0; j < 16; ++j) {
            const bool live = std::abs(i - j) <= 2;
            EXPECT_EQ(mask.toDense().at(i, j) != 0, live)
                << i << "," << j;
        }
    }
}

TEST(Generate, SlidingWindowRectangular)
{
    const auto mask = slidingWindowMask(8, 32, 8);
    EXPECT_EQ(mask.rows(), 8);
    EXPECT_EQ(mask.cols(), 32);
    // Centres scale with the key length.
    EXPECT_GT(mask.nnz(), 0u);
    for (int i = 0; i < 8; ++i)
        EXPECT_GT(mask.rowNnz(i), 0);
}

TEST(Reference, SpmmEqualsGemmOnDensified)
{
    Rng rng(20);
    const auto a = randomSparse(9, 12, 0.5, rng);
    const auto b = randomDense(12, 7, rng);
    EXPECT_EQ(reference::spmm(CsrMatrix::fromDense(a), b),
              reference::gemm(a, b));
}

TEST(Reference, SddmmEqualsMaskedGemm)
{
    Rng rng(21);
    const auto a = randomDense(6, 10, rng);
    const auto b = randomDense(10, 8, rng);
    const auto mask = randomMask(6, 8, 0.5, rng);
    const auto full = reference::gemm(a, b);
    const auto sampled = reference::sddmm(mask, a, b);
    const auto mask_d = mask.toDense();
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 8; ++j)
            EXPECT_EQ(sampled.at(i, j),
                      mask_d.at(i, j) != 0 ? full.at(i, j) : 0);
}

TEST(Reference, ShapeChecks)
{
    const DenseMatrix a(2, 3), b(4, 2);
    EXPECT_THROW(reference::gemm(a, b), PanicError);
}

TEST(Preprocess, PermutationIsBijective)
{
    Rng rng(30);
    const auto a =
        CsrMatrix::fromDense(randomSparse(33, 16, 0.6, rng));
    const auto p = balancedRowOrder(a);
    std::vector<bool> seen(33, false);
    for (int r = 0; r < 33; ++r) {
        const int o = p.oldRow(r);
        ASSERT_GE(o, 0);
        ASSERT_LT(o, 33);
        EXPECT_FALSE(seen[static_cast<std::size_t>(o)]);
        seen[static_cast<std::size_t>(o)] = true;
    }
}

TEST(Preprocess, SnakeOrderBalancesWindows)
{
    // Any contiguous window of the balanced order should carry close
    // to the average work even when the input is heavily skewed.
    Rng rng(31);
    const auto a = CsrMatrix::fromDense(
        randomSparseBimodal(64, 64, 0.1, 0.95, rng));
    const auto p = balancedRowOrder(a);
    const auto bal = permuteRows(a, p);

    const int window = 8;
    const double avg =
        static_cast<double>(a.nnz()) / (64 / window);
    for (int w = 0; w < 64 / window; ++w) {
        std::int64_t work = 0;
        for (int r = 0; r < window; ++r)
            work += bal.rowNnz(w * window + r);
        EXPECT_NEAR(static_cast<double>(work), avg, avg * 0.5)
            << "window " << w;
    }
}

TEST(Preprocess, UnpermuteRestoresReference)
{
    Rng rng(32);
    const auto a_dense = randomSparse(20, 16, 0.5, rng);
    const auto b = randomDense(16, 8, rng);
    const auto a = CsrMatrix::fromDense(a_dense);
    const auto p = balancedRowOrder(a);
    const auto permuted = permuteRows(a, p);

    const auto c_perm = reference::spmm(permuted, b);
    EXPECT_EQ(p.unpermute(c_perm), reference::spmm(a, b));
}

TEST(Preprocess, BimodalGeneratorAlternates)
{
    Rng rng(33);
    const auto m = randomSparseBimodal(32, 200, 0.1, 0.9, rng);
    // Even rows dense-ish, odd rows sparse.
    double even = 0.0, odd = 0.0;
    for (int r = 0; r < 32; r += 2)
        even += static_cast<double>(
            CsrMatrix::fromDense(m).rowNnz(r));
    for (int r = 1; r < 32; r += 2)
        odd += static_cast<double>(CsrMatrix::fromDense(m).rowNnz(r));
    EXPECT_GT(even, odd * 4);
}

} // namespace
} // namespace canon
