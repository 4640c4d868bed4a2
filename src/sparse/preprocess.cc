#include "sparse/preprocess.hh"

#include <algorithm>
#include <numeric>

namespace canon
{

WordMatrix
RowPermutation::unpermute(const WordMatrix &c) const
{
    panicIf(static_cast<int>(perm.size()) != c.rows(),
            "RowPermutation: size mismatch");
    WordMatrix out(c.rows(), c.cols());
    for (int r = 0; r < c.rows(); ++r)
        for (int col = 0; col < c.cols(); ++col)
            out.at(perm[static_cast<std::size_t>(r)], col) =
                c.at(r, col);
    return out;
}

RowPermutation
balancedRowOrder(const CsrMatrix &a)
{
    std::vector<int> by_nnz(static_cast<std::size_t>(a.rows()));
    std::iota(by_nnz.begin(), by_nnz.end(), 0);
    std::stable_sort(by_nnz.begin(), by_nnz.end(),
                     [&](int x, int y) {
                         return a.rowNnz(x) > a.rowNnz(y);
                     });

    // Snake deal: heaviest, lightest, second-heaviest, ... so that any
    // contiguous window of rows carries near-average work.
    RowPermutation p;
    p.perm.reserve(by_nnz.size());
    std::size_t lo = 0, hi = by_nnz.size();
    bool front = true;
    while (lo < hi) {
        p.perm.push_back(front ? by_nnz[lo++] : by_nnz[--hi]);
        front = !front;
    }
    return p;
}

CsrMatrix
permuteRows(const CsrMatrix &a, const RowPermutation &p)
{
    panicIf(static_cast<int>(p.perm.size()) != a.rows(),
            "permuteRows: size mismatch");
    const auto &rp = a.rowPtr();
    return CsrMatrix::fromRows(a.rows(), a.cols(), [&](int nr, auto push) {
        const int orig = p.perm[static_cast<std::size_t>(nr)];
        for (auto i = rp[orig]; i < rp[orig + 1]; ++i)
            push(a.colIdx()[i], a.values()[i]);
    });
}

} // namespace canon
