#include "sparse/generate.hh"

#include <algorithm>

namespace canon
{

namespace
{

/** Nonzero INT8 value in [-magnitude, magnitude] \ {0}. */
Elem
nonZeroValue(Rng &rng, int magnitude)
{
    panicIf(magnitude < 1 || magnitude > 127,
            "generator magnitude out of range: ", magnitude);
    for (;;) {
        auto v = static_cast<Elem>(rng.nextRange(-magnitude, magnitude));
        if (v != 0)
            return v;
    }
}

} // namespace

DenseMatrix
randomDense(int rows, int cols, Rng &rng, int magnitude)
{
    DenseMatrix m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m.at(r, c) = nonZeroValue(rng, magnitude);
    return m;
}

DenseMatrix
randomSparse(int rows, int cols, double sparsity, Rng &rng, int magnitude)
{
    fatalIf(sparsity < 0.0 || sparsity > 1.0,
            "sparsity must be in [0,1], got ", sparsity);
    DenseMatrix m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            if (!rng.nextBool(sparsity))
                m.at(r, c) = nonZeroValue(rng, magnitude);
    return m;
}

DenseMatrix
randomSparseBimodal(int rows, int cols, double sparsity_a,
                    double sparsity_b, Rng &rng, int magnitude)
{
    DenseMatrix m(rows, cols);
    for (int r = 0; r < rows; ++r) {
        const double sp = (r % 2 == 0) ? sparsity_a : sparsity_b;
        for (int c = 0; c < cols; ++c)
            if (!rng.nextBool(sp))
                m.at(r, c) = nonZeroValue(rng, magnitude);
    }
    return m;
}

DenseMatrix
nmStructured(int rows, int cols, int n, int m, Rng &rng, int magnitude)
{
    fatalIf(n < 0 || m <= 0 || n > m, "invalid N:M pattern ", n, ":", m);
    fatalIf(cols % m != 0, "cols ", cols, " not divisible by M=", m);
    DenseMatrix mat(rows, cols);
    for (int r = 0; r < rows; ++r) {
        for (int g = 0; g < cols / m; ++g) {
            auto lanes = rng.sample(static_cast<std::uint32_t>(m),
                                    static_cast<std::uint32_t>(n));
            for (auto l : lanes)
                mat.at(r, g * m + static_cast<int>(l)) =
                    nonZeroValue(rng, magnitude);
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
    CsrMatrix mask(query_len, key_len);
    const int half = window / 2;
    for (int i = 0; i < query_len; ++i) {
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
            mask.append(i, j, 1);
    }
    return mask;
}

CsrMatrix
randomMask(int rows, int cols, double sparsity, Rng &rng)
{
    fatalIf(sparsity < 0.0 || sparsity > 1.0,
            "sparsity must be in [0,1], got ", sparsity);
    CsrMatrix mask(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            if (!rng.nextBool(sparsity))
                mask.append(r, c, 1);
    return mask;
}

} // namespace canon
