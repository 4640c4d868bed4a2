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

    /** Fraction of zero entries, in [0, 1]. */
    double
    sparsity() const
    {
        if (data_.empty())
            return 0.0;
        return 1.0 -
               static_cast<double>(countNonZero()) /
                   static_cast<double>(data_.size());
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
 * baseline accelerator models.
 */
class CsrMatrix
{
  public:
    CsrMatrix() : rowPtr_(1, 0) {}

    CsrMatrix(int rows, int cols) : rows_(rows), cols_(cols)
    {
        rowPtr_.assign(static_cast<std::size_t>(rows) + 1, 0);
    }

    /** Build from a dense matrix, dropping zeros. */
    static CsrMatrix fromDense(const DenseMatrix &d);

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    std::size_t nnz() const { return colIdx_.size(); }

    int
    rowNnz(int r) const
    {
        syncRowPtr();
        return rowPtr_[static_cast<std::size_t>(r) + 1] -
               rowPtr_[static_cast<std::size_t>(r)];
    }

    /** Append an entry; rows must be appended in order, cols ascending. */
    void append(int row, int col, Elem value);

    const std::vector<std::int32_t> &
    rowPtr() const
    {
        syncRowPtr();
        return rowPtr_;
    }

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
    /** Patch rowPtr entries past the construction cursor (lazy append). */
    void syncRowPtr() const;

    int rows_ = 0;
    int cols_ = 0;
    mutable std::vector<std::int32_t> rowPtr_;
    std::vector<std::int32_t> colIdx_;
    std::vector<Elem> values_;

    /** Last row touched by append(); -1 when empty / fully synced. */
    int cursorRow_ = -1;
    mutable bool dirty_ = false;
};

} // namespace canon

#endif // CANON_SPARSE_MATRIX_HH
