#include "sparse/matrix.hh"

namespace canon
{

CsrMatrix
CsrMatrix::fromDense(const DenseMatrix &d)
{
    // One pass, branch-free: every element is written at the cursor,
    // which advances past nonzeros only (random sparsity would defeat
    // a branch predictor). The arrays start at the dense size and are
    // trimmed to the nonzeros at the end.
    CsrMatrix m(d.rows(), d.cols());
    m.colIdx_.resize(d.size());
    m.values_.resize(d.size());
    std::size_t n = 0;
    const Elem *row = d.data().data();
    for (int r = 0; r < d.rows(); ++r, row += d.cols()) {
        for (int c = 0; c < d.cols(); ++c) {
            m.colIdx_[n] = c;
            m.values_[n] = row[c];
            n += row[c] != 0;
        }
        m.rowPtr_[static_cast<std::size_t>(r) + 1] =
            static_cast<std::int32_t>(n);
    }
    m.colIdx_.resize(n);
    m.values_.resize(n);
    m.colIdx_.shrink_to_fit();
    m.values_.shrink_to_fit();
    return m;
}

void
CsrMatrix::append(int row, int col, Elem value)
{
    panicIf(row < 0 || row >= rows_, "CsrMatrix::append: row ", row,
            " out of ", rows_);
    panicIf(col < 0 || col >= cols_, "CsrMatrix::append: col ", col,
            " out of ", cols_);
    panicIf(value == 0, "CsrMatrix::append: explicit zero");
    panicIf(row < cursorRow_,
            "CsrMatrix::append: rows must be appended in order (got ",
            row, " after ", cursorRow_, ")");
    panicIf(row == cursorRow_ && !colIdx_.empty() && colIdx_.back() >= col,
            "CsrMatrix::append: columns must ascend within a row");

    // Close out rows skipped since the last append. Entries past the
    // cursor stay stale until syncRowPtr() patches them on read.
    for (int r = std::max(cursorRow_, 0); r < row; ++r)
        rowPtr_[static_cast<std::size_t>(r) + 1] =
            static_cast<std::int32_t>(colIdx_.size());
    cursorRow_ = row;

    colIdx_.push_back(col);
    values_.push_back(value);
    rowPtr_[static_cast<std::size_t>(row) + 1] =
        static_cast<std::int32_t>(colIdx_.size());
    dirty_ = true;
}

void
CsrMatrix::syncRowPtr() const
{
    if (!dirty_)
        return;
    for (std::size_t r = static_cast<std::size_t>(cursorRow_) + 1;
         r < static_cast<std::size_t>(rows_); ++r)
        rowPtr_[r + 1] = static_cast<std::int32_t>(colIdx_.size());
    dirty_ = false;
}

} // namespace canon
