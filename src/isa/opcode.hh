/**
 * @file
 * PE operation codes.
 *
 * The ISA is deliberately tiny (Section 3.1): PEs carry no control
 * logic, so an instruction only names an ALU operation and three
 * addresses in the unified address space. Everything control-flow-like
 * lives in the orchestrator.
 */

#ifndef CANON_ISA_OPCODE_HH
#define CANON_ISA_OPCODE_HH

#include <cstdint>

namespace canon
{

enum class OpCode : std::uint8_t
{
    Nop = 0,

    /** res += op1.lane[0] * op2 (scalar-vector MAC; SpMM inner op). */
    SvMac,

    /** res += op1 * op2 lane-wise (vector-vector MAC). */
    VvMac,

    /**
     * res = op1 * op2 + west-in, lane-wise. The fused form used by the
     * SDDMM dataflow where partial sums ride the west->east channel
     * while both operands are local (Figure 7b / Listing 4).
     */
    VvMacW,

    /** res = op1 + op2 lane-wise (psum accumulate). */
    VAdd,

    /** res = op1 (move / flush / load). */
    VMov,

    /**
     * res = op1, then op1's storage is cleared to zero. The flush
     * primitive of Appendix C ("LOAD SPad[0x00]; STORE #0 to
     * SPad[0x00]"): a psum leaves for the south neighbour and its slot
     * is recycled for the next output row in one instruction.
     */
    VFlush,

    /**
     * Spatial-mode hold (Appendix D): stop propagating instructions and
     * keep re-executing the latched spatial instruction.
     */
    Hold,

    NumOpCodes
};

/** Ops whose EXECUTE stage performs multiply work (utilization metric). */
inline bool
isMacOp(OpCode op)
{
    return op == OpCode::SvMac || op == OpCode::VvMac ||
           op == OpCode::VvMacW;
}

} // namespace canon

#endif // CANON_ISA_OPCODE_HH
