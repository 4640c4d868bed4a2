/**
 * @file
 * The loadable artifact a kernel mapper produces (Figure 6's three
 * intermediate representations):
 *
 *   1. I/O control    -> per-row meta streams + north-edge vector
 *                        queues (the EDDO memory movers' schedules)
 *   2. data placement -> per-PE data-memory images
 *   3. control logic  -> the orchestrator FSM program (bitstream)
 *
 * plus the collector description telling the fabric where results
 * leave the array and how to assemble the output matrix.
 */

#ifndef CANON_CORE_KERNEL_MAPPING_HH
#define CANON_CORE_KERNEL_MAPPING_HH

#include <memory>
#include <vector>

#include "common/types.hh"
#include "orch/program.hh"
#include "orch/token.hh"

namespace canon
{

enum class CollectorKind : std::uint8_t
{
    /**
     * Psums exit the bottom edge; the bottom orchestrator's PSUM
     * messages name the output row, PE column c's lanes cover output
     * columns [4c, 4c+4). Used by SpMM / GEMM / N:M.
     */
    South,

    /**
     * Scalar results exit the east edge, one per OutRec {m, local n};
     * PE row y covers output columns [y*eastColsPerRow, ...). The lane
     * reduction at the array edge sums the 4 lanes. Used by SDDMM.
     */
    East,
};

struct KernelMapping
{
    std::string name;
    std::shared_ptr<OrchProgram> program;

    /** Per-row meta-data streams (index = PE row). */
    std::vector<MetaStream> rowStreams;

    /** dmemImage[row][col] = initial data-memory slots of that PE. */
    std::vector<std::vector<std::vector<Vec4>>> dmemImage;

    /** North-edge feed: northFeed[step][col] (East-collector kernels). */
    std::vector<std::vector<Vec4>> northFeed;

    CollectorKind collector = CollectorKind::South;
    int outRows = 0;
    int outCols = 0;
    int eastColsPerRow = 0;
};

} // namespace canon

#endif // CANON_CORE_KERNEL_MAPPING_HH
