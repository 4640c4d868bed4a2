/**
 * @file
 * Synthetic tensor generators.
 *
 * The paper's workloads come from activation-sparsified real models
 * (ResNet-50, LLaMA-8B, Mistral-7B, Longformer-on-BERT). Those tensors
 * are not redistributable, so this repository substitutes synthetic
 * matrices with the same *structural* statistics -- which is what the
 * architecture reacts to (Section 5 of DESIGN.md):
 *
 *  - unstructured sparsity at a target density (S1/S2/S3 ranges),
 *  - N:M fine-grained structured sparsity (2:4, 2:8, any N:M),
 *  - sliding-window (diagonal band) output masks for window attention.
 *
 * Values are small nonzero INT8s so that INT32 accumulation is exact
 * for every problem size used in tests and benches. Sparse operands and
 * masks come back as CSR, filled row by row in one row-major pass that
 * makes exactly the draws an (r, c) walk over the dense matrix would:
 * per entry one Bernoulli draw, rng.nextBool(sparsity) killing it, and
 * for a live entry then its value. The walk tests each entry against
 * the integer threshold Rng::boolThreshold(sparsity), computed once
 * per matrix and row parity, so it consumes the Rng exactly as those
 * nextBool() calls would. A sparsity outside [0, 1], NaN included, is
 * fatal, and so is a value magnitude outside [1, 127]; both are
 * checked once per matrix.
 */

#ifndef CANON_SPARSE_GENERATE_HH
#define CANON_SPARSE_GENERATE_HH

#include "common/rng.hh"
#include "sparse/matrix.hh"

namespace canon
{

namespace gen_detail
{

/** fatal() unless @p sparsity is in [0, 1]; NaN is not. */
void checkSparsity(double sparsity);

/** panic() unless @p magnitude is in [1, 127]. */
void checkMagnitude(int magnitude);

/** Nonzero value in [-magnitude, magnitude]; the caller checked it. */
inline Elem
nonZero(Rng &rng, int magnitude)
{
    for (;;) {
        const auto v =
            static_cast<Elem>(rng.nextRange(-magnitude, magnitude));
        if (v != 0)
            return v;
    }
}

/** The value(rng) of bernoulliRows drawing nonZero(rng, magnitude). */
inline auto
nonZeroValues(int magnitude)
{
    checkMagnitude(magnitude);
    return [magnitude](Rng &g) { return nonZero(g, magnitude); };
}

/**
 * The row source of a cols-wide matrix whose entries are each live
 * unless rng.nextBool(its row's sparsity: @p sparsity_even on even
 * rows, @p sparsity_odd on odd ones); a live entry takes
 * @p value(rng). Both sparsities are checked by the caller.
 */
template <typename Value>
auto
bernoulliRows(int cols, double sparsity_even, double sparsity_odd,
              Rng &rng, Value value)
{
    const std::uint64_t dead_even = Rng::boolThreshold(sparsity_even);
    const std::uint64_t dead_odd = Rng::boolThreshold(sparsity_odd);
    return [=, &rng](int r, auto push) {
        const std::uint64_t dead = r % 2 == 0 ? dead_even : dead_odd;
        Rng g = rng; // a local copy's state can stay in registers
        for (int c = 0; c < cols; ++c)
            if (g.next53() >= dead)
                push(c, value(g));
        rng = g;
    };
}

} // namespace gen_detail

/**
 * The rows of randomSparse(rows, cols, sparsity, rng, magnitude),
 * drawn one at a time for a caller that consumes them as they come
 * (CanonRunner deals its SpMM proxy straight into meta streams). The
 * result is a row source, the fill of CsrMatrix::fromRows: called as
 * source(r, push) for r = 0, 1, ... in order, it draws row r from
 * @p rng and calls push(col, value) for each live entry, columns
 * ascending, making exactly randomSparse's draws.
 */
inline auto
sparseRows(int cols, double sparsity, Rng &rng, int magnitude = 4)
{
    gen_detail::checkSparsity(sparsity);
    return gen_detail::bernoulliRows(cols, sparsity, sparsity, rng,
                                     gen_detail::nonZeroValues(magnitude));
}

/** Dense matrix with uniform nonzero values in [-magnitude, magnitude]. */
DenseMatrix randomDense(int rows, int cols, Rng &rng, int magnitude = 4);

/**
 * Unstructured sparse matrix: every entry is nonzero with probability
 * (1 - sparsity), independently. Per-row nnz therefore varies -- the
 * imbalance Canon's buffer management is designed to absorb.
 */
CsrMatrix randomSparse(int rows, int cols, double sparsity, Rng &rng,
                       int magnitude = 4);

/**
 * Skewed sparse matrix: alternating rows at @p sparsity_a and
 * @p sparsity_b. Models the uneven non-zero distributions of real
 * activation tensors, where row-granular accelerators hit their
 * long-row balancing cliff (Section 6.2's S3 discussion).
 */
CsrMatrix randomSparseBimodal(int rows, int cols, double sparsity_a,
                              double sparsity_b, Rng &rng,
                              int magnitude = 4);

/**
 * N:M structured sparsity: exactly @p n nonzeros in every aligned group
 * of @p m consecutive elements along each row (2:4 is the Tensor-Core
 * pattern; the paper also evaluates 2:8). cols must divide by m.
 */
DenseMatrix nmStructured(int rows, int cols, int n, int m, Rng &rng,
                         int magnitude = 4);

/** True iff every aligned m-group of every row has at most n nonzeros. */
bool conformsToNm(const DenseMatrix &a, int n, int m);

/**
 * Sliding-window attention mask for a @p query_len x @p key_len score
 * matrix: position (i, j) is live iff |i - j'| <= window/2 where j' is
 * j scaled to query positions. For square self-attention this is the
 * Longformer band of width @p window.
 */
CsrMatrix slidingWindowMask(int query_len, int key_len, int window);

/**
 * Random unstructured binary mask with target output sparsity: the
 * entry draws of randomSparse, with every live value 1.
 */
CsrMatrix randomMask(int rows, int cols, double sparsity, Rng &rng);

} // namespace canon

#endif // CANON_SPARSE_GENERATE_HH
