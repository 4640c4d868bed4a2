/**
 * @file
 * SpMM on Canon: Gustavson row dataflow with asynchronous reduction
 * and explicit scratchpad buffer management (Section 4.1.1, Listing 1,
 * Figure 8, Appendices A and C).
 *
 * Mapping (Figure 7a / 18):
 *  - the dense matrix B (KxN) is tiled across the array: PE row y
 *    holds B rows [y*H, (y+1)*H) (H = K/rows), PE column x holds B
 *    columns [4x, 4x+4);
 *  - the sparse matrix A streams row-by-row into the orchestrators:
 *    orchestrator y receives the non-zeros of A whose column index
 *    falls in its B-row range, as (local-coordinate, value) tokens
 *    plus a RowEnd token per non-empty output row;
 *  - each PE scalar-vector-MACs streamed values against its local B
 *    slice into the scratchpad slot of the current output row;
 *  - partial sums travel south, merged opportunistically (managed
 *    rows accumulate, unmanaged ones bypass) and exit the bottom edge
 *    where the collector assembles C (MxN).
 *
 * Fabric-native shape constraints (the analytic layer tiles larger
 * problems over these):  N == cols*4,  K % rows == 0,  K/rows <= dmem
 * slots, M < 2^14.
 */

#ifndef CANON_KERNELS_SPMM_HH
#define CANON_KERNELS_SPMM_HH

#include <memory>

#include "core/config.hh"
#include "core/kernel_mapping.hh"
#include "sparse/matrix.hh"

namespace canon
{

/** FSM state ids of the SpMM program (exposed for tests). */
namespace spmm_state
{
constexpr std::uint8_t kMac = 0;
constexpr std::uint8_t kAcc = 1;
constexpr std::uint8_t kFlush = 2;
constexpr std::uint8_t kDrain = 3;
constexpr std::uint8_t kDone = 4;
} // namespace spmm_state

/** Build the SpMM orchestrator program (Listing 1 as microcode). */
std::shared_ptr<OrchProgram> buildSpmmProgram();

/** Map A (sparse, MxK) times B (dense, KxN) onto the fabric. */
KernelMapping mapSpmm(const CsrMatrix &a, const DenseMatrix &b,
                      const CanonConfig &cfg);

} // namespace canon

#endif // CANON_KERNELS_SPMM_HH
