/**
 * @file
 * Test-side CSR conversions: compact a hand-written dense matrix into
 * CSR, and expand a CSR back into a dense matrix to compare against.
 * The library builds every CSR row by row through CsrMatrix::fromRows;
 * these exist for tests that start from, or check against, dense
 * values.
 */

#ifndef CANON_TESTS_CSR_HH
#define CANON_TESTS_CSR_HH

#include "sparse/matrix.hh"

namespace canon
{

/** Compact @p d into CSR, dropping zeros. */
inline CsrMatrix
fromDense(const DenseMatrix &d)
{
    return CsrMatrix::fromRows(d.rows(), d.cols(), [&](int r, auto push) {
        for (int c = 0; c < d.cols(); ++c)
            if (d.at(r, c) != 0)
                push(c, d.at(r, c));
    });
}

/** Expand @p m back into a dense matrix. */
inline DenseMatrix
toDense(const CsrMatrix &m)
{
    DenseMatrix d(m.rows(), m.cols());
    const auto &row_ptr = m.rowPtr();
    for (int r = 0; r < m.rows(); ++r)
        for (auto i = row_ptr[static_cast<std::size_t>(r)];
             i < row_ptr[static_cast<std::size_t>(r) + 1]; ++i)
            d.at(r, m.colIdx()[static_cast<std::size_t>(i)]) =
                m.values()[static_cast<std::size_t>(i)];
    return d;
}

} // namespace canon

#endif // CANON_TESTS_CSR_HH
