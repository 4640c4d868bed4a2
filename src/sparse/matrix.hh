/**
 * @file
 * Dense and CSR matrix containers used throughout the repository.
 *
 * Matrix values are INT8 (Elem) on the input side and INT32 (Word) on
 * the accumulator/output side, matching the INT8 MAC datapath of
 * Table 1. All correctness checks in the test suite are therefore exact
 * integer comparisons, never epsilon comparisons.
 */

#ifndef CANON_SPARSE_MATRIX_HH
#define CANON_SPARSE_MATRIX_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace canon
{

/** Row-major dense matrix. */
template <typename T>
class Matrix
{
  public:
    Matrix() = default;

    Matrix(int rows, int cols, T init = T{})
        : rows_(rows), cols_(cols),
          data_(static_cast<std::size_t>(rows) * cols, init)
    {
        panicIf(rows < 0 || cols < 0, "Matrix: negative shape");
    }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    T &
    at(int r, int c)
    {
        checkIndex(r, c);
        return data_[static_cast<std::size_t>(r) * cols_ + c];
    }

    T
    at(int r, int c) const
    {
        checkIndex(r, c);
        return data_[static_cast<std::size_t>(r) * cols_ + c];
    }

    const std::vector<T> &data() const { return data_; }
    std::vector<T> &data() { return data_; }

    /** Count of structurally nonzero entries. */
    std::size_t
    countNonZero() const
    {
        std::size_t n = 0;
        for (const auto &v : data_)
            if (v != T{})
                ++n;
        return n;
    }

    friend bool
    operator==(const Matrix &a, const Matrix &b)
    {
        return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
               a.data_ == b.data_;
    }

  private:
    void
    checkIndex(int r, int c) const
    {
        panicIf(r < 0 || r >= rows_ || c < 0 || c >= cols_,
                "Matrix index (", r, ",", c, ") out of ", rows_, "x",
                cols_);
    }

    int rows_ = 0;
    int cols_ = 0;
    std::vector<T> data_;
};

using DenseMatrix = Matrix<Elem>;
using WordMatrix = Matrix<Word>;

/**
 * Compressed Sparse Row matrix with INT8 values. The canonical exchange
 * format between generators, the Canon meta-data streams, and the
 * baseline accelerator models: the orchestrators turn its sparse
 * coordinates into control, so every sparse operand is built in this
 * form, once, row by row through fromRows().
 */
class CsrMatrix
{
  public:
    /**
     * Build complete rows in order: @p fill(r, push) runs once for
     * each r in [0, rows) and calls push(col, value) for each entry of
     * row r. Panics on a column outside [0, cols), a column that does
     * not ascend within its row, or an explicit zero.
     */
    template <typename Fill>
    static CsrMatrix
    fromRows(int rows, int cols, Fill fill)
    {
        CsrMatrix m(rows, cols);
        for (int r = 0; r < rows; ++r) {
            const std::size_t first = m.colIdx_.size();
            fill(r, [&](int col, Elem value) {
                panicIf(col < 0 || col >= cols, "CsrMatrix: col ", col,
                        " out of ", cols, " in row ", r);
                panicIf(m.colIdx_.size() > first && col <= m.colIdx_.back(),
                        "CsrMatrix: columns must ascend within row ", r);
                panicIf(value == 0, "CsrMatrix: explicit zero at (", r, ",",
                        col, ")");
                m.colIdx_.push_back(col);
                m.values_.push_back(value);
            });
            m.rowPtr_[static_cast<std::size_t>(r) + 1] =
                static_cast<std::int32_t>(m.colIdx_.size());
        }
        return m;
    }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    std::size_t nnz() const { return colIdx_.size(); }

    int
    rowNnz(int r) const
    {
        return rowPtr_[static_cast<std::size_t>(r) + 1] -
               rowPtr_[static_cast<std::size_t>(r)];
    }

    const std::vector<std::int32_t> &rowPtr() const { return rowPtr_; }
    const std::vector<std::int32_t> &colIdx() const { return colIdx_; }
    const std::vector<Elem> &values() const { return values_; }

    double
    sparsity() const
    {
        const auto total =
            static_cast<double>(rows_) * static_cast<double>(cols_);
        return total == 0.0 ? 0.0 : 1.0 - static_cast<double>(nnz()) / total;
    }

  private:
    CsrMatrix(int rows, int cols) : rows_(rows), cols_(cols)
    {
        panicIf(rows < 0 || cols < 0, "CsrMatrix: negative shape ", rows,
                "x", cols);
        rowPtr_.assign(static_cast<std::size_t>(rows) + 1, 0);
    }

    int rows_ = 0;
    int cols_ = 0;
    std::vector<std::int32_t> rowPtr_;
    std::vector<std::int32_t> colIdx_;
    std::vector<Elem> values_;
};

} // namespace canon

#endif // CANON_SPARSE_MATRIX_HH
