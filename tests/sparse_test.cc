/**
 * @file
 * Sparse substrate tests: container invariants, generator structure
 * properties (parameterized sweeps), and reference-kernel identities
 * (SpMM == GEMM on densified input, SDDMM == masked GEMM).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "csr.hh"
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
    EXPECT_THROW(m.at(3, 0), PanicError);
    EXPECT_THROW(m.at(0, 4), PanicError);
}

bool
sameCsr(const CsrMatrix &a, const CsrMatrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           a.rowPtr() == b.rowPtr() && a.colIdx() == b.colIdx() &&
           a.values() == b.values();
}

TEST(Matrix, CsrRoundTrip)
{
    Rng rng(1);
    const auto csr = randomSparse(13, 17, 0.6, rng);
    const auto d = toDense(csr);
    EXPECT_EQ(csr.nnz(), d.countNonZero());
    EXPECT_TRUE(sameCsr(fromDense(d), csr));
}

/**
 * Reference generator: a bounds-checked (r, c) walk over a dense
 * matrix. Rows alternate between @p sparsity_even and
 * @p sparsity_odd; a live entry draws a nonzero value of at most
 * @p magnitude, or is 1 when @p magnitude is 0 (a mask). The
 * library's CSR generators must equal it compacted to CSR.
 */
DenseMatrix
walkSparse(int rows, int cols, double sparsity_even, double sparsity_odd,
           Rng &rng, int magnitude)
{
    DenseMatrix m(rows, cols);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (rng.nextBool(r % 2 == 0 ? sparsity_even : sparsity_odd))
                continue;
            if (magnitude == 0) {
                m.at(r, c) = 1;
                continue;
            }
            for (;;) {
                const auto v = static_cast<Elem>(
                    rng.nextRange(-magnitude, magnitude));
                if (v != 0) {
                    m.at(r, c) = v;
                    break;
                }
            }
        }
    }
    return m;
}

TEST(Generate, SinglePassMatchesElementWalk)
{
    // Same matrix and the same generator state afterwards, so every
    // draw that follows (B, masks, later seeds) is unchanged too.
    Rng shapes(5);
    for (int trial = 0; trial < 40; ++trial) {
        const int rows = static_cast<int>(shapes.nextRange(0, 40));
        const int cols = static_cast<int>(shapes.nextRange(0, 70));
        const double sp = trial % 10 == 0 ? trial % 20 == 0 ? 0.0 : 1.0
                                          : shapes.nextDouble();
        const int mag = static_cast<int>(shapes.nextRange(1, 127));
        const std::uint64_t seed = shapes.next();
        const auto check = [&](const char *name, auto generate,
                               double sp_odd, int walk_mag) {
            Rng fast(seed);
            Rng walk(seed);
            const auto got = generate(fast);
            const auto want =
                fromDense(walkSparse(rows, cols, sp, sp_odd, walk, walk_mag));
            EXPECT_TRUE(sameCsr(got, want))
                << name << " " << rows << "x" << cols << " sp=" << sp;
            EXPECT_EQ(fast.next(), walk.next()) << name;
        };
        check(
            "randomSparse",
            [&](Rng &rng) { return randomSparse(rows, cols, sp, rng, mag); },
            sp, mag);
        check(
            "randomSparseBimodal",
            [&](Rng &rng) {
                return randomSparseBimodal(rows, cols, sp, 1.0 - sp, rng,
                                           mag);
            },
            1.0 - sp, mag);
        check(
            "randomMask",
            [&](Rng &rng) { return randomMask(rows, cols, sp, rng); }, sp,
            0);
    }
}

TEST(Generate, SparsityOutsideTheUnitIntervalIsFatal)
{
    // The negated range check rejects NaN too, before its threshold
    // (an undefined conversion of NaN * 2^53) is computed, and before
    // anything is drawn.
    for (const double bad : {std::nan(""), -0.1, 1.1}) {
        Rng rng(1);
        EXPECT_THROW(randomSparse(4, 4, bad, rng), FatalError) << bad;
        EXPECT_THROW(randomSparseBimodal(4, 4, bad, 0.5, rng), FatalError)
            << bad;
        EXPECT_THROW(randomSparseBimodal(4, 4, 0.5, bad, rng), FatalError)
            << bad;
        EXPECT_THROW(randomMask(4, 4, bad, rng), FatalError) << bad;
        EXPECT_THROW(sparseRows(4, bad, rng), FatalError) << bad;
        EXPECT_EQ(rng.next(), Rng(1).next()) << bad;
    }
}

/**
 * The panic message of building a 4x4 CSR whose row 1 holds @p cols,
 * each with @p value, or "".
 */
std::string
row1Panic(const std::vector<int> &cols, Elem value = 1)
{
    try {
        (void)CsrMatrix::fromRows(4, 4, [&](int r, auto push) {
            if (r == 1)
                for (int c : cols)
                    push(c, value);
        });
    } catch (const PanicError &e) {
        return e.what();
    }
    return {};
}

TEST(Matrix, CsrAppendOrderEnforced)
{
    // Complete rows in order: rows 0 and 2 are empty, row 1 holds
    // columns 2 and 3, row 3 starts over at column 0.
    const auto m = CsrMatrix::fromRows(4, 4, [](int r, auto push) {
        if (r == 1) {
            push(2, 5);
            push(3, 1);
        }
        if (r == 3)
            push(0, 1);
    });
    EXPECT_EQ(m.rowPtr(), (std::vector<std::int32_t>{0, 0, 2, 2, 3}));
    EXPECT_EQ(m.colIdx(), (std::vector<std::int32_t>{2, 3, 0}));
    EXPECT_EQ(m.values(), (std::vector<Elem>{5, 1, 1}));
    EXPECT_EQ(m.rowNnz(2), 0);

    const auto fails = [](const std::string &what, const char *rule) {
        EXPECT_NE(what.find(rule), std::string::npos)
            << "want '" << rule << "', got '" << what << "'";
    };
    fails(row1Panic({2, 2}), "columns must ascend within row 1");
    fails(row1Panic({3, 2}), "columns must ascend within row 1");
    fails(row1Panic({2, 4}), "col 4 out of 4 in row 1");
    fails(row1Panic({-1}), "col -1 out of 4 in row 1");
    EXPECT_EQ(row1Panic({0, 3}), "");
}

TEST(Matrix, CsrRejectsExplicitZero)
{
    EXPECT_NE(row1Panic({3}, 0).find("explicit zero at (1,3)"),
              std::string::npos);
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
            EXPECT_EQ(toDense(mask).at(i, j) != 0, live)
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
    EXPECT_EQ(reference::spmm(a, b), reference::gemm(toDense(a), b));
}

TEST(Reference, SddmmEqualsMaskedGemm)
{
    Rng rng(21);
    const auto a = randomDense(6, 10, rng);
    const auto b = randomDense(10, 8, rng);
    const auto mask = randomMask(6, 8, 0.5, rng);
    const auto full = reference::gemm(a, b);
    const auto sampled = reference::sddmm(mask, a, b);
    const auto mask_d = toDense(mask);
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
    const auto a = randomSparse(33, 16, 0.6, rng);
    const auto p = balancedRowOrder(a);
    std::vector<bool> seen(33, false);
    for (int r = 0; r < 33; ++r) {
        const int o = p.perm[static_cast<std::size_t>(r)];
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
    const auto a = randomSparseBimodal(64, 64, 0.1, 0.95, rng);
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
    const auto a = randomSparse(20, 16, 0.5, rng);
    const auto b = randomDense(16, 8, rng);
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
        even += static_cast<double>(m.rowNnz(r));
    for (int r = 1; r < 32; r += 2)
        odd += static_cast<double>(m.rowNnz(r));
    EXPECT_GT(even, odd * 4);
}

} // namespace
} // namespace canon
