/**
 * @file
 * End-to-end SpMM on the Canon fabric against the gold reference:
 * the central correctness property of the whole simulator. Sweeps
 * sparsity levels, scratchpad depths and array shapes with
 * parameterized tests; every comparison is exact INT32 equality.
 */

#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fabric.hh"
#include "csr.hh"
#include "kernels/spmm.hh"
#include "sparse/generate.hh"
#include "sparse/reference.hh"
#include "workloads/canon_runner.hh"

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
    const auto csr = fromDense(a);

    EXPECT_EQ(runSpmm(csr, b, cfg), reference::spmm(csr, b));
}

TEST(CanonSpmm, SingleRowManyNnz)
{
    const auto cfg = smallConfig();
    Rng rng(2);
    const auto csr = randomSparse(1, 16, 0.2, rng);
    const auto b = randomDense(16, 16, rng);

    EXPECT_EQ(runSpmm(csr, b, cfg), reference::spmm(csr, b));
}

TEST(CanonSpmm, EmptyMatrix)
{
    const auto cfg = smallConfig();
    Rng rng(3);
    const DenseMatrix a(8, 16); // all zeros
    const auto b = randomDense(16, 16, rng);
    const auto csr = fromDense(a);

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
    fabric.load(mapSpmm(fromDense(a), b, cfg));
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
    const auto csr = randomSparse(p.m, p.k, p.sparsity, rng);
    const auto b = randomDense(p.k, cfg.cols * kSimdWidth, rng);

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
    const auto csr = randomSparse(64, 64, 0.6, rng);
    const auto b = randomDense(64, cfg.cols * kSimdWidth, rng);

    EXPECT_EQ(runSpmm(csr, b, cfg), reference::spmm(csr, b));
}

TEST(CanonSpmm, UtilizationDropsWithSparsityImbalance)
{
    // At equal nnz-work, a deeper scratchpad should never hurt and at
    // high sparsity should help (Figure 17's qualitative shape).
    Rng rng(77);
    const auto csr = randomSparse(96, 32, 0.8, rng);
    const auto b = randomDense(32, 16, rng);

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

/**
 * Reference streams and data image for mapSpmm: each orchestrator's
 * stream filters the whole of A for its K-slice.
 */
std::vector<std::vector<MetaToken>>
sliceFilterStreams(const CsrMatrix &a, int rows, int h)
{
    std::vector<std::vector<MetaToken>> streams;
    const auto &row_ptr = a.rowPtr();
    for (int y = 0; y < rows; ++y) {
        const int k_lo = y * h;
        const int k_hi = k_lo + h;
        std::vector<MetaToken> tokens;
        for (int m = 0; m < a.rows(); ++m) {
            bool any = false;
            for (auto i = row_ptr[m]; i < row_ptr[m + 1]; ++i) {
                const int k = a.colIdx()[i];
                if (k < k_lo || k >= k_hi)
                    continue;
                tokens.push_back(MetaToken::nnz(
                    static_cast<std::uint16_t>(k - k_lo), a.values()[i]));
                any = true;
            }
            if (any)
                tokens.push_back(
                    MetaToken::rowEnd(static_cast<std::uint16_t>(m)));
        }
        streams.push_back(std::move(tokens));
    }
    return streams;
}

std::vector<std::vector<std::vector<Vec4>>>
sliceImage(const DenseMatrix &b, int rows, int cols, int h)
{
    std::vector<std::vector<std::vector<Vec4>>> image(rows);
    for (int y = 0; y < rows; ++y) {
        image[y].resize(cols);
        for (int x = 0; x < cols; ++x) {
            image[y][x].resize(h);
            for (int hh = 0; hh < h; ++hh)
                for (int l = 0; l < kSimdWidth; ++l)
                    image[y][x][hh][l] =
                        b.at(y * h + hh, x * kSimdWidth + l);
        }
    }
    return image;
}

std::vector<MetaToken>
tokensOf(MetaStream s)
{
    // Past any start cycle, peek() shows the stream's tokens.
    constexpr Cycle kPastAnyStart = std::numeric_limits<Cycle>::max();
    // End is implicit: peek() shows it once the tokens run out.
    std::vector<MetaToken> out;
    for (MetaToken t; (t = s.peek(kPastAnyStart)).kind != TokenKind::End;
         s.advance())
        out.push_back(t);
    return out;
}

/** The tokens of each of @p map's streams. */
std::vector<std::vector<MetaToken>>
streamTokens(const KernelMapping &map)
{
    std::vector<std::vector<MetaToken>> out;
    for (const MetaStream &s : map.rowStreams)
        out.push_back(tokensOf(s));
    return out;
}

/** Token-for-token equality, naming the first difference. */
::testing::AssertionResult
sameTokens(const std::vector<std::vector<MetaToken>> &got,
           const std::vector<std::vector<MetaToken>> &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << got.size() << " streams, want " << want.size();
    for (std::size_t y = 0; y < got.size(); ++y) {
        if (got[y].size() != want[y].size())
            return ::testing::AssertionFailure()
                   << "stream " << y << ": " << got[y].size()
                   << " tokens, want " << want[y].size();
        for (std::size_t i = 0; i < got[y].size(); ++i) {
            const MetaToken &g = got[y][i];
            const MetaToken &w = want[y][i];
            if (g.kind != w.kind || g.value != w.value || g.data != w.data)
                return ::testing::AssertionFailure()
                       << "stream " << y << " token " << i << " differs";
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(CanonSpmm, DrawnProxyMatchesMappedCsr)
{
    // CanonRunner draws an SpMM proxy's A straight into the meta
    // streams (drawSpmm), then B. From one seed that must give the
    // streams, data image, nonzero count and generator state of
    // mapSpmm over randomSparse then randomDense, and the streams of
    // the slice filter -- which a slicer shared by both paths cannot
    // agree with by accident.
    const std::array<std::pair<int, int>, 10> fabrics{{{1, 8},
                                                       {8, 2},
                                                       {3, 5},
                                                       {8, 8},
                                                       {4, 16},
                                                       {16, 16},
                                                       {32, 32},
                                                       {8, 64},
                                                       {64, 4},
                                                       {2, 2}}};
    Rng pick(3101);
    int trial = 0;
    for (const auto &[rows, cols] : fabrics) {
        for (int rep = 0; rep < 4; ++rep, ++trial) {
            CanonConfig cfg = smallConfig(rows, cols);
            cfg.dmemSlots = static_cast<int>(pick.nextRange(1, 64));
            const int m = static_cast<int>(pick.nextRange(1, 600));
            const int h = static_cast<int>(pick.nextRange(1, cfg.dmemSlots));
            const int depth = rows * h;
            const double sparsity = trial % 5 == 0   ? 0.0
                                    : trial % 5 == 1 ? 1.0
                                                     : pick.nextDouble();
            const std::uint64_t seed = pick.next();
            std::ostringstream what;
            what << rows << "x" << cols << " dmem " << cfg.dmemSlots
                 << ": " << m << "x" << depth << " sparsity " << sparsity
                 << " seed " << seed;

            Rng drawn_rng(seed);
            std::size_t nnz = 0;
            const KernelMapping drawn =
                drawSpmm(m, depth, sparsity, drawn_rng, cfg, nnz);

            Rng csr_rng(seed);
            const auto a = randomSparse(m, depth, sparsity, csr_rng);
            const auto b = randomDense(depth, cols * kSimdWidth, csr_rng);
            const KernelMapping mapped = mapSpmm(a, b, cfg);

            const auto tokens = streamTokens(drawn);
            EXPECT_TRUE(sameTokens(tokens, streamTokens(mapped)))
                << what.str();
            EXPECT_TRUE(sameTokens(tokens, sliceFilterStreams(a, rows, h)))
                << what.str();
            EXPECT_EQ(drawn.dmemImage, mapped.dmemImage) << what.str();
            EXPECT_EQ(nnz, a.nnz()) << what.str();
            EXPECT_EQ(drawn.outRows, m) << what.str();
            EXPECT_EQ(drawn.outCols, cols * kSimdWidth) << what.str();
            EXPECT_EQ(drawn.name, mapped.name) << what.str();
            EXPECT_NE(drawn.program, nullptr) << what.str();
            EXPECT_EQ(drawn_rng.next(), csr_rng.next()) << what.str();
        }
    }
    CanonConfig cfg = smallConfig();
    std::size_t nnz = 0;
    for (const double bad : {std::nan(""), -0.1, 1.1}) {
        Rng rng(1);
        EXPECT_THROW(drawSpmm(8, 8, bad, rng, cfg, nnz), FatalError) << bad;
    }
}

TEST(CanonSpmm, MappingMatchesSliceFilter)
{
    // Random shapes with empty rows, whole K-slices left empty and
    // nonzeros pinned to both edges of every live slice.
    Rng rng(31);
    for (int trial = 0; trial < 60; ++trial) {
        const int rows = static_cast<int>(rng.nextRange(1, 8));
        const int cols = static_cast<int>(rng.nextRange(1, 4));
        const int h = static_cast<int>(rng.nextRange(1, 9));
        const int m_rows = static_cast<int>(rng.nextRange(0, 30));
        const int k = rows * h;
        std::vector<bool> live_slice(rows);
        for (int y = 0; y < rows; ++y)
            live_slice[y] = rng.nextBool(0.7);

        DenseMatrix a_dense(m_rows, k);
        for (int m = 0; m < m_rows; ++m) {
            if (rng.nextBool(0.25))
                continue; // empty row
            for (int c = 0; c < k; ++c) {
                const int y = c / h;
                const bool edge = c % h == 0 || c % h == h - 1;
                if (live_slice[y] && rng.nextBool(edge ? 0.6 : 0.3))
                    a_dense.at(m, c) =
                        static_cast<Elem>(rng.nextRange(1, 9));
            }
        }
        const auto a = fromDense(a_dense);
        const auto b = randomDense(k, cols * kSimdWidth, rng);

        CanonConfig cfg = smallConfig(rows, cols);
        const auto map = mapSpmm(a, b, cfg);
        EXPECT_TRUE(sameTokens(streamTokens(map),
                               sliceFilterStreams(a, rows, h)))
            << "trial " << trial;
        EXPECT_EQ(map.dmemImage, sliceImage(b, rows, cols, h))
            << "trial " << trial;
    }
}

} // namespace
} // namespace canon
