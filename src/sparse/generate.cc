#include "sparse/generate.hh"

#include <algorithm>

namespace canon
{

namespace gen_detail
{

void
checkSparsity(double sparsity)
{
    fatalIf(!(sparsity >= 0.0 && sparsity <= 1.0),
            "sparsity must be in [0,1], got ", sparsity);
}

void
checkMagnitude(int magnitude)
{
    panicIf(magnitude < 1 || magnitude > 127,
            "generator magnitude out of range: ", magnitude);
}

} // namespace gen_detail

DenseMatrix
randomDense(int rows, int cols, Rng &rng, int magnitude)
{
    gen_detail::checkMagnitude(magnitude);
    DenseMatrix m(rows, cols);
    for (Elem &v : m.data()) // row-major: the (r, c) walk's order
        v = gen_detail::nonZero(rng, magnitude);
    return m;
}

CsrMatrix
randomSparse(int rows, int cols, double sparsity, Rng &rng, int magnitude)
{
    return CsrMatrix::fromRows(rows, cols,
                               sparseRows(cols, sparsity, rng, magnitude));
}

CsrMatrix
randomSparseBimodal(int rows, int cols, double sparsity_a,
                    double sparsity_b, Rng &rng, int magnitude)
{
    gen_detail::checkSparsity(sparsity_a);
    gen_detail::checkSparsity(sparsity_b);
    return CsrMatrix::fromRows(
        rows, cols,
        gen_detail::bernoulliRows(cols, sparsity_a, sparsity_b, rng,
                                  gen_detail::nonZeroValues(magnitude)));
}

DenseMatrix
nmStructured(int rows, int cols, int n, int m, Rng &rng, int magnitude)
{
    fatalIf(n < 0 || m <= 0 || n > m, "invalid N:M pattern ", n, ":", m);
    fatalIf(cols % m != 0, "cols ", cols, " not divisible by M=", m);
    gen_detail::checkMagnitude(magnitude);
    DenseMatrix mat(rows, cols);
    for (int r = 0; r < rows; ++r) {
        for (int g = 0; g < cols / m; ++g) {
            auto lanes = rng.sample(static_cast<std::uint32_t>(m),
                                    static_cast<std::uint32_t>(n));
            for (auto l : lanes)
                mat.at(r, g * m + static_cast<int>(l)) =
                    gen_detail::nonZero(rng, magnitude);
        }
    }
    return mat;
}

bool
conformsToNm(const DenseMatrix &a, int n, int m)
{
    if (a.cols() % m != 0)
        return false;
    for (int r = 0; r < a.rows(); ++r) {
        for (int g = 0; g < a.cols() / m; ++g) {
            int live = 0;
            for (int i = 0; i < m; ++i)
                if (a.at(r, g * m + i) != 0)
                    ++live;
            if (live > n)
                return false;
        }
    }
    return true;
}

CsrMatrix
slidingWindowMask(int query_len, int key_len, int window)
{
    fatalIf(window <= 0, "window must be positive, got ", window);
    const int half = window / 2;
    return CsrMatrix::fromRows(query_len, key_len, [&](int i, auto push) {
        // Centre of the band for query i, in key coordinates.
        const int centre = key_len == query_len
                               ? i
                               : static_cast<int>(
                                     (static_cast<std::int64_t>(i) *
                                      key_len) /
                                     query_len);
        const int lo = std::max(0, centre - half);
        const int hi = std::min(key_len - 1, centre + half);
        for (int j = lo; j <= hi; ++j)
            push(j, 1);
    });
}

CsrMatrix
randomMask(int rows, int cols, double sparsity, Rng &rng)
{
    gen_detail::checkSparsity(sparsity);
    return CsrMatrix::fromRows(
        rows, cols,
        gen_detail::bernoulliRows(cols, sparsity, sparsity, rng,
                                  [](Rng &) { return Elem{1}; }));
}

} // namespace canon
