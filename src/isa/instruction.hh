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
 * The simulator never packs an instruction into a hardware word. The
 * row's instruction NoC carries it as a DecodedInst: the orchestrator
 * issues one instruction per cycle and every PE of the row executes
 * it, so its addresses are classified once, at issue, instead of once
 * per PE and pipeline stage.
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
};

/** A NOP instruction constant. */
inline Instruction
nopInst()
{
    return Instruction{};
}

/** An instruction with its three addresses decoded (see above). */
struct DecodedInst
{
    OpCode op = OpCode::Nop;
    std::uint8_t route = 0;
    bool hold = false;
    Operand op1;
    Operand op2;
    Operand res;

    bool isNop() const { return op == OpCode::Nop && route == 0; }

    friend constexpr bool operator==(const DecodedInst &,
                                     const DecodedInst &) = default;
};

constexpr DecodedInst
decode(const Instruction &i)
{
    return DecodedInst{i.op,
                       i.route,
                       i.hold,
                       addrspace::decode(i.op1),
                       addrspace::decode(i.op2),
                       addrspace::decode(i.res)};
}

static_assert(decode(Instruction{}) == DecodedInst{},
              "a default DecodedInst is the decoded NOP");

} // namespace canon

#endif // CANON_ISA_INSTRUCTION_HH
