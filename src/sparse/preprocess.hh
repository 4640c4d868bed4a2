/**
 * @file
 * Input preprocessing transforms.
 *
 * Section 5 notes that ZeD's row-reorganization preprocessing was
 * excluded from the comparison "as the same can be applied to Canon".
 * This module implements it so the claim is testable: reordering the
 * sparse matrix's rows (by non-zero population) changes nothing
 * semantically -- outputs are permuted back -- but evens out the
 * work distribution that reaches the orchestrators' buffer management,
 * and `bench_ablation_row_reorder` quantifies the effect on both
 * Canon and ZeD.
 */

#ifndef CANON_SPARSE_PREPROCESS_HH
#define CANON_SPARSE_PREPROCESS_HH

#include <vector>

#include "sparse/matrix.hh"

namespace canon
{

/** A row permutation: perm[new_row] = old_row. */
struct RowPermutation
{
    std::vector<int> perm;

    /** Undo the permutation on a result matrix's rows. */
    WordMatrix unpermute(const WordMatrix &c) const;
};

/**
 * Reorder rows so heavy and light rows interleave (balanced snake
 * order): sort by nnz, then deal them out alternately from both ends.
 * This is the balancing reorganization of the ZeD paper.
 */
RowPermutation balancedRowOrder(const CsrMatrix &a);

/** Apply a permutation to A's rows. */
CsrMatrix permuteRows(const CsrMatrix &a, const RowPermutation &p);

} // namespace canon

#endif // CANON_SPARSE_PREPROCESS_HH
