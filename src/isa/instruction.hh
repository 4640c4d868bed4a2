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
 * it, so its control is decided once per row, not once per PE and
 * cycle -- the amortization time-lapsed SIMD exists for. decode()
 * classifies the three addresses at issue. resolve() then decides,
 * against the instruction issued one cycle earlier (the one every PE
 * of the row loads the cycle before), everything LOAD and COMMIT would
 * otherwise re-derive: where each read operand's value comes from
 * (the array, the forwarding network, or the zero a VFlush recycles),
 * which input ports LOAD pops, which of the predecessor's writes this
 * instruction makes dead (write coalescing), and the first structural
 * fault LOAD hits, in operand order.
 */

#ifndef CANON_ISA_INSTRUCTION_HH
#define CANON_ISA_INSTRUCTION_HH

#include <array>
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

    constexpr bool isNop() const { return op == OpCode::Nop && route == 0; }
};

/** A NOP instruction constant. */
inline Instruction
nopInst()
{
    return Instruction{};
}

/**
 * Where LOAD finds one read operand's value (resolve()). The three
 * array sources read at the operand's offset; a port source reads the
 * vector LOAD popped from that input port.
 */
enum class Src : std::uint8_t
{
    Zero,    //!< the zero vector: ZERO, an operand the op does not read,
             //!< or the slot the preceding VFlush recycles
    Forward, //!< the preceding instruction's result (forwarding network)
    Dmem,
    Spad,
    Reg,
    PortN, //!< PortN + Dir: the vector popped from that input port
    PortS,
    PortE,
    PortW,
};

constexpr Src
portSrc(Dir d)
{
    return static_cast<Src>(static_cast<int>(Src::PortN) +
                            static_cast<int>(d));
}

/** The first structural fault LOAD hits (resolve()). */
enum class LoadFault : std::uint8_t
{
    None,
    Opcode,         //!< corrupt opcode
    TwoDmemReads,   //!< a second data-memory read in one instruction
    TwoSpadReads,   //!< a second scratchpad read in one instruction
    IllegalOperand, //!< a read of NULL, an output port or no region
};

/** LOAD's operand reads, in the order LOAD performs them. */
enum LoadRead : std::uint8_t
{
    kReadOp1,
    kReadOp2,
    kReadAcc, //!< the MAC addend: res's prior value, or W_IN for VvMacW
    kLoadReads
};

/** DecodedInst::kills: the preceding instruction's writes made dead. */
enum KillBit : std::uint8_t
{
    kKillRes = 1 << 0, //!< its res write
    kKillOp1 = 1 << 1, //!< its VFlush recycle write of op1
};

/**
 * An instruction with its three addresses decoded and, once resolve()
 * has run, its control resolved (see above).
 */
struct DecodedInst
{
    OpCode op = OpCode::Nop;
    std::uint8_t route = 0;
    bool hold = false;
    Operand op1;
    Operand op2;
    Operand res;

    // Resolved against the preceding instruction; all zero for a NOP.
    // After a fault, src and pops describe only the reads before it.
    std::array<Src, kLoadReads> src{}; //!< indexed by LoadRead
    std::uint8_t pops = 0;  //!< input ports LOAD pops, bit 1 << Dir
    std::uint8_t kills = 0; //!< KillBit mask
    LoadFault fault = LoadFault::None;
    std::uint8_t faultAt = 0; //!< the LoadRead that faults

    constexpr bool isNop() const { return op == OpCode::Nop && route == 0; }

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

constexpr std::uint8_t
dirBit(Dir d)
{
    return static_cast<std::uint8_t>(1u << static_cast<int>(d));
}

/**
 * Resolve @p cur in place against @p prev, the instruction the same PE
 * loads one cycle earlier. Only the decoded fields of either are read;
 * every resolved field of @p cur is recomputed. @p prev and @p cur are
 * distinct objects. The caller should not copy @p cur as a whole right
 * after: its fields were just stored one by one, so a wide load of them
 * stalls on store forwarding.
 */
constexpr void
resolve(const DecodedInst &prev, DecodedInst &cur)
{
    cur.src = {};
    cur.pops = cur.kills = 0;
    cur.fault = LoadFault::None;
    cur.faultAt = 0;
    if (cur.isNop())
        return;

    // Write coalescing: a write of prev's that cur overwrites is dead
    // -- the value only ever travels the forwarding network. Real
    // pipelines keep the run in the accumulate register and commit
    // once, which is what keeps the scratchpad's power share modest at
    // low sparsity (Figure 11). Port and NULL writes never die, and a
    // NOP or HOLD overwrites nothing. A VFlush's own res write is never
    // dead; its recycle write of op1 can be.
    const auto overwrites = [&cur](const Operand &a) {
        if (a.region == AddrRegion::PortOut || a.region == AddrRegion::Null)
            return false;
        if (cur.res.addr == a.addr && cur.op != OpCode::Nop &&
            cur.op != OpCode::Hold)
            return true;
        return cur.op == OpCode::VFlush && cur.op1.addr == a.addr;
    };
    switch (prev.op) {
      case OpCode::SvMac:
      case OpCode::VvMac:
      case OpCode::VvMacW:
      case OpCode::VAdd:
      case OpCode::VMov:
        if (overwrites(prev.res))
            cur.kills = kKillRes;
        break;
      case OpCode::VFlush:
        if (overwrites(prev.op1))
            cur.kills = kKillOp1;
        break;
      default:
        break;
    }

    const auto fail = [&cur](LoadFault f, int at) {
        cur.fault = f;
        cur.faultAt = static_cast<std::uint8_t>(at);
        return false;
    };
    const auto port = [&cur](int at, Dir d) {
        cur.src[at] = portSrc(d);
        cur.pops |= dirBit(d);
        return true;
    };

    // One operand read; false once LOAD faults. prev commits next
    // cycle, so a local read of a location it writes takes its value
    // from the forwarding network instead of the array (not counted as
    // a memory access); a VFlush also zeroes its op1 slot -- the slot
    // the circular psum buffer hands to the very next row -- so that
    // recycle write forwards too. One read port per local memory.
    bool dmem_read = false;
    bool spad_read = false;
    const bool forwards = !prev.isNop();
    const auto read = [&](int at, const Operand &a) {
        const bool local = a.region != AddrRegion::PortIn &&
                           a.region != AddrRegion::PortOut;
        if (forwards && local) {
            if (prev.op == OpCode::VFlush && prev.op1.addr == a.addr) {
                cur.src[at] = Src::Zero;
                return true;
            }
            if (prev.res.addr == a.addr) {
                cur.src[at] = Src::Forward;
                return true;
            }
        }
        switch (a.region) {
          case AddrRegion::Dmem:
            if (dmem_read)
                return fail(LoadFault::TwoDmemReads, at);
            dmem_read = true;
            cur.src[at] = Src::Dmem;
            return true;
          case AddrRegion::Spad:
            if (spad_read)
                return fail(LoadFault::TwoSpadReads, at);
            spad_read = true;
            cur.src[at] = Src::Spad;
            return true;
          case AddrRegion::Reg:
            cur.src[at] = Src::Reg;
            return true;
          case AddrRegion::PortIn:
            return port(at, static_cast<Dir>(a.offset));
          case AddrRegion::Zero:
            cur.src[at] = Src::Zero;
            return true;
          default: // Null, PortOut, Invalid
            return fail(LoadFault::IllegalOperand, at);
        }
    };

    bool loaded = true;
    switch (cur.op) {
      case OpCode::Nop:
      case OpCode::Hold:
        break;
      case OpCode::SvMac:
      case OpCode::VvMac:
        loaded = read(kReadOp1, cur.op1) && read(kReadOp2, cur.op2) &&
                 read(kReadAcc, cur.res);
        break;
      case OpCode::VvMacW:
        loaded = read(kReadOp1, cur.op1) && read(kReadOp2, cur.op2) &&
                 port(kReadAcc, Dir::West);
        break;
      case OpCode::VAdd:
        loaded = read(kReadOp1, cur.op1) && read(kReadOp2, cur.op2);
        break;
      case OpCode::VMov:
      case OpCode::VFlush:
        loaded = read(kReadOp1, cur.op1);
        break;
      default:
        loaded = fail(LoadFault::Opcode, kReadOp1);
        break;
    }
    // Pass-through routes latch their port at LOAD too; one pop feeds
    // every reader of a port.
    if (loaded) {
        if (cur.route & kRouteN2S)
            cur.pops |= dirBit(Dir::North);
        if (cur.route & kRouteW2E)
            cur.pops |= dirBit(Dir::West);
    }
}

static_assert(
    [] {
        DecodedInst nop;
        nop.pops = nop.kills = 0xFF;
        resolve(decode(Instruction{OpCode::VMov}), nop);
        return nop == DecodedInst{};
    }(),
    "a NOP resolves to the default DecodedInst");

} // namespace canon

#endif // CANON_ISA_INSTRUCTION_HH
