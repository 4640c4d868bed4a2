/**
 * @file
 * The Canon PE instruction (Section 3.1):
 *
 *     <inst> ::= <op> <op1_addr> <op2_addr> <res_addr>
 *
 * plus the ROUTER_CONF fields visible in Figure 4: a pass-through route
 * mask that switches the circuit NoC independently of the compute
 * operands (used for psum bypass N->S and meta/data forwarding W->E),
 * and the spatial-mode hold bit of Appendix D.
 *
 * The instruction-dedicated NoC carries instructions in this decoded
 * form; the simulator never packs them into a hardware word.
 */

#ifndef CANON_ISA_INSTRUCTION_HH
#define CANON_ISA_INSTRUCTION_HH

#include <cstdint>

#include "isa/address_space.hh"
#include "isa/opcode.hh"

namespace canon
{

/** Pass-through routes switchable by one instruction. */
enum RouteBit : std::uint8_t
{
    kRouteN2S = 1 << 0, //!< forward north-in to south-out (psum bypass)
    kRouteW2E = 1 << 1, //!< forward west-in to east-out (operand stream)
    kRouteS2N = 1 << 2,
    kRouteE2W = 1 << 3,
};

struct Instruction
{
    OpCode op = OpCode::Nop;
    Addr op1 = addrspace::kNullAddr;
    Addr op2 = addrspace::kNullAddr;
    Addr res = addrspace::kNullAddr;
    std::uint8_t route = 0;
    bool hold = false;

    bool isNop() const { return op == OpCode::Nop && route == 0; }

    friend bool
    operator==(const Instruction &a, const Instruction &b)
    {
        return a.op == b.op && a.op1 == b.op1 && a.op2 == b.op2 &&
               a.res == b.res && a.route == b.route && a.hold == b.hold;
    }
};

/** A NOP instruction constant. */
inline Instruction
nopInst()
{
    return Instruction{};
}

} // namespace canon

#endif // CANON_ISA_INSTRUCTION_HH
