/**
 * @file
 * The orchestrator's configurable vocabulary (Figure 5).
 *
 * The FSM's programmable LUT sees only 10 condition bits and emits a
 * 48-bit word whose fields *select* behaviours from small per-kernel
 * menus -- it never sees 16-bit values. Value-carrying data (row IDs,
 * coordinates, buffer pointers) flows through the statically
 * configured datapath units below, exactly the static/dynamic split
 * the paper describes:
 *
 *  - Predicate:   the condition bits (2 ALUs x 2 flags worth). Which
 *    four predicates feed the LUT is selected per FSM state.
 *  - AddrMode:    address generation menu (up to 16 entries); LUT
 *    fields pick one per operand role.
 *  - MsgMode:     message generation menu (up to 4 entries).
 *  - MetaUpdate:  state-meta register update menu (up to 4 per reg).
 *  - RouteMode:   pass-through route masks (up to 4 entries).
 */

#ifndef CANON_ORCH_CONFIG_HH
#define CANON_ORCH_CONFIG_HH

#include <array>
#include <cstdint>

#include "isa/instruction.hh"

namespace canon
{

// --------------------------------------------------------------------
// Condition predicates
// --------------------------------------------------------------------

/**
 * Condition bits computable by the two flag ALUs + buffer probe from
 * the architectural registers. Four are selected per state.
 */
enum class Predicate : std::uint8_t
{
    False = 0,
    True,
    InputIsNnz,     //!< input meta kind == Nnz
    InputIsRowEnd,  //!< input meta kind == RowEnd
    InputIsEnd,     //!< input meta kind == End (stream exhausted)
    InputIsAux,     //!< input meta kind == Aux
    MsgTagManaged,  //!< buffer.is_managing(msg.value)
    BufferAtCap,    //!< resident entries == capacity-1 (flush on push)
    BufferEmpty,    //!< no resident entries
    MsgValueEqMeta0, //!< msg.value == stateMeta[0]
    Meta1EqConst,   //!< stateMeta[1] == program constant condConst
    Meta1GtMeta0,   //!< stateMeta[1] > stateMeta[0] (data prefetched)
    Meta1MinusMeta0LtB, //!< meta1 - meta0 < condConstB (window open)
    MsgMinusMeta0LtB,   //!< msg.value - meta0 < condConstB (merge window)
    NumPredicates
};

constexpr int kNumCondBits = 4;

/** Predicate selection for one FSM state. */
using PredicateSet = std::array<Predicate, kNumCondBits>;

// --------------------------------------------------------------------
// Address generation
// --------------------------------------------------------------------

/** Value selectors for indexed address generation and messages. */
enum class ValueSel : std::uint8_t
{
    Zero = 0,
    InputValue, //!< current meta token's 14-bit value
    MsgValue,   //!< incoming message value
    Meta0,
    Meta1,
    HeadTag,    //!< buffer's oldest resident tag
};

struct AddrMode
{
    enum class Kind : std::uint8_t
    {
        Null = 0,   //!< kNullAddr (unused operand)
        Zero,       //!< reads as zero vector
        Fixed,      //!< a literal unified-space address
        Indexed,    //!< base + ((sel & mask) << shift)
        SpadHead,   //!< scratchpad slot of the oldest resident psum
        SpadTail,   //!< scratchpad slot the current row accumulates in
        SpadSearch, //!< scratchpad slot where tag == msg.value resides
    };

    Kind kind = Kind::Null;
    Addr base = 0;
    ValueSel sel = ValueSel::Zero;
    std::uint16_t mask = 0x3FFF;
    std::uint8_t shift = 0;

    static AddrMode null() { return {}; }

    static AddrMode
    fixed(Addr a)
    {
        AddrMode m;
        m.kind = Kind::Fixed;
        m.base = a;
        return m;
    }

    static AddrMode
    indexed(Addr base, ValueSel sel, std::uint16_t mask = 0x3FFF,
            std::uint8_t shift = 0)
    {
        AddrMode m;
        m.kind = Kind::Indexed;
        m.base = base;
        m.sel = sel;
        m.mask = mask;
        m.shift = shift;
        return m;
    }

    static AddrMode
    spadHead()
    {
        AddrMode m;
        m.kind = Kind::SpadHead;
        return m;
    }

    static AddrMode
    spadTail()
    {
        AddrMode m;
        m.kind = Kind::SpadTail;
        return m;
    }

    static AddrMode
    spadSearch()
    {
        AddrMode m;
        m.kind = Kind::SpadSearch;
        return m;
    }
};

// --------------------------------------------------------------------
// Message generation
// --------------------------------------------------------------------

struct MsgMode
{
    enum class Kind : std::uint8_t
    {
        None = 0,
        Emit,    //!< send {id, value = sel}
        Forward, //!< relay the incoming message unchanged
    };

    Kind kind = Kind::None;
    std::uint8_t id = 0;
    ValueSel sel = ValueSel::Zero;

    static MsgMode none() { return {}; }

    static MsgMode
    emit(std::uint8_t id, ValueSel sel)
    {
        MsgMode m;
        m.kind = Kind::Emit;
        m.id = id;
        m.sel = sel;
        return m;
    }

    static MsgMode
    forward()
    {
        MsgMode m;
        m.kind = Kind::Forward;
        return m;
    }
};

// --------------------------------------------------------------------
// State-meta register updates
// --------------------------------------------------------------------

struct MetaUpdate
{
    enum class Kind : std::uint8_t
    {
        Nop = 0,
        Set,       //!< meta = constant
        AddConst,  //!< meta += constant (signed)
        LoadInput, //!< meta = input meta value
        LoadMsg,   //!< meta = msg value
    };

    Kind kind = Kind::Nop;
    std::int16_t konst = 0;

    static MetaUpdate nop() { return {}; }

    static MetaUpdate
    set(std::int16_t k)
    {
        return {Kind::Set, k};
    }

    static MetaUpdate
    add(std::int16_t k)
    {
        return {Kind::AddConst, k};
    }
};

// --------------------------------------------------------------------
// Buffer (scratchpad tag FIFO) operations
// --------------------------------------------------------------------

enum class BufferOp : std::uint8_t
{
    None = 0,
    Push,    //!< materialize the accumulation slot (tag = tagSel value)
    Pop,     //!< retire the oldest resident entry
    PushPop, //!< both, in one cycle (row end with a full buffer)
};

// --------------------------------------------------------------------
// What the west edge injects when an instruction consumes W_IN
// --------------------------------------------------------------------

enum class WestFeed : std::uint8_t
{
    None = 0,
    TokenData, //!< lane0 = the meta token's INT8 payload
    ZeroVec,   //!< a zero vector (psum seed for W->E reductions)
};

// --------------------------------------------------------------------
// The decoded 48-bit LUT output word
// --------------------------------------------------------------------

constexpr int kNumFsmStates = 8;
constexpr int kNumAddrModes = 16;
constexpr int kNumMsgModes = 4;
constexpr int kNumMetaUpdates = 4;
constexpr int kNumRouteModes = 4;
constexpr int kLutInputBits = 10;
constexpr int kLutEntries = 1 << kLutInputBits;
constexpr int kLutWordBits = 48;

/**
 * Semantic view of one LUT entry. Index fields refer to the
 * per-program menus above; packOutput() (lut.hh) checks that each
 * field fits its slot of the 48-bit hardware word.
 */
struct OutputFields
{
    std::uint8_t nextState = 0;  // 3b
    OpCode peOp = OpCode::Nop;   // 3b
    std::uint8_t op1Mode = 0;    // 4b
    std::uint8_t op2Mode = 0;    // 4b
    std::uint8_t resMode = 0;    // 4b
    std::uint8_t routeMode = 0;  // 2b
    std::uint8_t msgMode = 0;    // 2b
    BufferOp bufferOp = BufferOp::None; // 2b
    std::uint8_t metaUpd0 = 0;   // 2b
    std::uint8_t metaUpd1 = 0;   // 2b
    bool consumeInput = false;   // 1b
    bool consumeMsg = false;     // 1b
    WestFeed westFeed = WestFeed::None; // 2b
    bool emitOutRec = false;     // 1b
    bool stallable = false;      // 1b: needs south channel space

    friend bool
    operator==(const OutputFields &a, const OutputFields &b)
    {
        return a.nextState == b.nextState && a.peOp == b.peOp &&
               a.op1Mode == b.op1Mode && a.op2Mode == b.op2Mode &&
               a.resMode == b.resMode && a.routeMode == b.routeMode &&
               a.msgMode == b.msgMode && a.bufferOp == b.bufferOp &&
               a.metaUpd0 == b.metaUpd0 && a.metaUpd1 == b.metaUpd1 &&
               a.consumeInput == b.consumeInput &&
               a.consumeMsg == b.consumeMsg &&
               a.westFeed == b.westFeed &&
               a.emitOutRec == b.emitOutRec &&
               a.stallable == b.stallable;
    }
};

} // namespace canon

#endif // CANON_ORCH_CONFIG_HH
