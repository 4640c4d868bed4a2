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
#include <vector>

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

/**
 * The part of a row-sliced mapping (SpMM, GEMM, N:M) that does not
 * depend on how A streams: checks that A (@p a_rows x @p a_cols)
 * times @p b fits the fabric natively, each fatal message prefixed
 * with @p who, then returns a South-collector mapping named @p name
 * whose data memories hold B's K slices. The caller adds the program
 * and the per-row meta streams.
 */
KernelMapping mapRowSliced(const std::string &who,
                           const std::string &name, int a_rows,
                           int a_cols, const DenseMatrix &b,
                           const CanonConfig &cfg);

/**
 * The orchestrators' meta streams of an SpMM, dealt from A's rows in
 * row order: orchestrator y receives each nonzero whose column falls
 * in its K slice [y*H, (y+1)*H) as a (local coordinate, value) token,
 * and each row that reached slice y then closes it with a RowEnd, so
 * every stream stays in row order. The rows come from a row source,
 * the fill of CsrMatrix::fromRows: mapSpmm deals a CSR's rows, and
 * CanonRunner the generator's own walk (sparseRows), so a drawn proxy
 * is never built as a CSR and walked a second time.
 */
class SpmmSlicer
{
  public:
    /**
     * Empty streams for an A of @p a_rows x @p k on @p cfg, fatal
     * with mapSpmm's message unless it streams natively (K a multiple
     * of the rows, K / rows within the data memory, M < 2^14). Each
     * stream is reserved for its share of @p expected_nnz nonzeros
     * and a RowEnd per row.
     */
    SpmmSlicer(int a_rows, int k, const CanonConfig &cfg,
               double expected_nnz);

    /**
     * Deal all of A: @p rows(r, push) runs for r = 0, 1, ...,
     * a_rows - 1 and calls push(col, value) for each nonzero of row
     * r, columns ascending.
     */
    template <typename RowSource>
    void
    deal(RowSource rows)
    {
        for (int r = 0; r < aRows_; ++r) {
            // Columns ascend, so a row is done with a slice once it
            // reaches a later one: that slice's RowEnd goes out then.
            std::vector<MetaToken> *slice = nullptr;
            int base = 0; // the current slice's columns: [base, end)
            int end = 0;
            rows(r, [&](int col, Elem value) {
                if (col >= end) {
                    if (slice)
                        slice->push_back(rowEnd(r));
                    const int y = col / h_;
                    slice = &tokens_[static_cast<std::size_t>(y)];
                    base = y * h_;
                    end = base + h_;
                }
                slice->push_back(MetaToken::nnz(
                    static_cast<std::uint16_t>(col - base), value));
                ++nnz_;
            });
            if (slice)
                slice->push_back(rowEnd(r));
        }
    }

    /** A's nonzeros dealt so far. */
    std::size_t nnz() const { return nnz_; }

    /**
     * The SpMM mapping of the dealt A times @p b: mapRowSliced's
     * checks and data placement, the SpMM program, and these streams.
     */
    KernelMapping map(const DenseMatrix &b) &&;

  private:
    static MetaToken
    rowEnd(int r)
    {
        return MetaToken::rowEnd(static_cast<std::uint16_t>(r));
    }

    CanonConfig cfg_;
    int aRows_ = 0;
    int k_ = 0;
    int h_ = 0;
    std::size_t nnz_ = 0;
    std::vector<std::vector<MetaToken>> tokens_;
};

/**
 * Map A (sparse, MxK) times B (dense, KxN) onto the fabric, dealing
 * A's CSR rows through SpmmSlicer.
 */
KernelMapping mapSpmm(const CsrMatrix &a, const DenseMatrix &b,
                      const CanonConfig &cfg);

} // namespace canon

#endif // CANON_KERNELS_SPMM_HH
