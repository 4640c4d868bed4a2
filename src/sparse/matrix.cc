#include "sparse/matrix.hh"

namespace canon
{

CsrMatrix
CsrMatrix::fromDense(const DenseMatrix &d)
{
    CsrMatrix m(d.rows(), d.cols());
    m.colIdx_.reserve(d.countNonZero());
    m.values_.reserve(m.colIdx_.capacity());
    for (int r = 0; r < d.rows(); ++r) {
        for (int c = 0; c < d.cols(); ++c) {
            if (d.at(r, c) != 0) {
                m.colIdx_.push_back(c);
                m.values_.push_back(d.at(r, c));
            }
        }
        m.rowPtr_[static_cast<std::size_t>(r) + 1] =
            static_cast<std::int32_t>(m.colIdx_.size());
    }
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
