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
 * for every problem size used in tests and benches.
 */

#ifndef CANON_SPARSE_GENERATE_HH
#define CANON_SPARSE_GENERATE_HH

#include "common/rng.hh"
#include "sparse/matrix.hh"

namespace canon
{

/** Dense matrix with uniform nonzero values in [-magnitude, magnitude]. */
DenseMatrix randomDense(int rows, int cols, Rng &rng, int magnitude = 4);

/**
 * Unstructured sparse matrix: every entry is nonzero with probability
 * (1 - sparsity), independently. Per-row nnz therefore varies -- the
 * imbalance Canon's buffer management is designed to absorb.
 */
DenseMatrix randomSparse(int rows, int cols, double sparsity, Rng &rng,
                         int magnitude = 4);

/**
 * Skewed sparse matrix: alternating rows at @p sparsity_a and
 * @p sparsity_b. Models the uneven non-zero distributions of real
 * activation tensors, where row-granular accelerators hit their
 * long-row balancing cliff (Section 6.2's S3 discussion).
 */
DenseMatrix randomSparseBimodal(int rows, int cols, double sparsity_a,
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

/** Random unstructured binary mask with target output sparsity. */
CsrMatrix randomMask(int rows, int cols, double sparsity, Rng &rng);

} // namespace canon

#endif // CANON_SPARSE_GENERATE_HH
