/**
 * @file
 * Orchestrator kernel programs and the microcode compiler.
 *
 * A kernel's control schedule is written as prioritized rules --
 * exactly the shape of Listing 1 in the paper ("op = MAC(CID) if
 * !msg_from_north && input == NNZ(CID); ...") -- against the menus of
 * config.hh. compile() lowers the rules into the 1024-entry LUT
 * bitstream that is prefilled into the orchestrator before execution
 * (Figure 6, "Program Generation" -> "Bitstream for the Orchestrator's
 * FSM").
 *
 * Rule matching is by (state, message-ID condition, predicate-bit
 * requirements); the first registered rule that matches a LUT index
 * fills its word. Unmatched indices get a safe self-loop NOP.
 */

#ifndef CANON_ORCH_PROGRAM_HH
#define CANON_ORCH_PROGRAM_HH

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "orch/config.hh"
#include "orch/lut.hh"
#include "orch/msg_channel.hh"

namespace canon
{

/**
 * One microcode rule: conditions plus the action fields emitted when
 * it fires. Built through the fluent interface below; see
 * src/kernels/spmm_program.cc for the canonical example.
 */
class Rule
{
  public:
    Rule(std::uint8_t state, const PredicateSet &preds)
        : state_(state), preds_(preds)
    {
        fields_.nextState = state; // default: self-loop
    }

    // ---- conditions -------------------------------------------------
    Rule &onMsg(std::uint8_t id);
    Rule &onNoMsg();
    Rule &when(Predicate p);
    Rule &whenNot(Predicate p);

    // ---- actions ----------------------------------------------------
    Rule &op(OpCode o);
    Rule &op1(int addr_mode);
    Rule &op2(int addr_mode);
    Rule &res(int addr_mode);
    Rule &route(int route_mode);
    Rule &msg(int msg_mode);
    Rule &buffer(BufferOp b);
    Rule &meta0(int upd);
    Rule &meta1(int upd);
    Rule &consumeInput();
    Rule &consumeMsg();
    Rule &westFeed(WestFeed w);
    Rule &outRec();
    Rule &stallable();
    Rule &next(std::uint8_t state);

    // ---- matching ---------------------------------------------------
    bool matches(std::uint8_t msg_id, std::uint8_t cond_bits) const;

    std::uint8_t state() const { return state_; }
    const OutputFields &fields() const { return fields_; }

  private:
    int predBit(Predicate p) const;

    std::uint8_t state_;
    PredicateSet preds_;
    // Message-ID condition: unset = any; kMsgNone = require none;
    // other = require exactly that ID.
    std::optional<std::uint8_t> msgId_;
    std::uint8_t predMask_ = 0;
    std::uint8_t predVal_ = 0;
    OutputFields fields_;
};

class OrchProgram
{
  public:
    explicit OrchProgram(std::string name);

    const std::string &name() const { return name_; }

    // ---- menu registration (static configuration) -------------------
    int addAddrMode(const AddrMode &m);
    int addRouteMode(std::uint8_t mask);
    int addMsgMode(const MsgMode &m);
    int addMetaUpdate(int reg, const MetaUpdate &u);

    void setPredicates(std::uint8_t state, const PredicateSet &preds);
    void setInitialState(std::uint8_t s) { initialState_ = s; }
    void setDoneState(std::uint8_t s) { doneState_ = s; }

    /** Value source for buffer Push tags (SpMM: the RowEnd RID). */
    void setTagSel(ValueSel sel) { tagSel_ = sel; }

    /** The constant compared by Predicate::Meta1EqConst. */
    void setCondConst(std::uint16_t k) { condConst_ = k; }

    /** The constant compared by Predicate::Meta1MinusMeta0LtB. */
    void setCondConstB(std::uint16_t k) { condConstB_ = k; }

    /**
     * Message id participating in the tag-managed merge protocol
     * (SpMM: kMsgPsum, whose value is the row tag searched against
     * the context queue). kMsgNone (the default) means no message is
     * merge-protocol traffic, which disables the adaptive flush
     * policy's message hold for this program.
     */
    void setMergeMsgId(std::uint8_t id) { mergeMsgId_ = id; }

    // ---- rules ------------------------------------------------------
    /** Add a rule for @p state; earlier rules have priority. */
    Rule &rule(std::uint8_t state);

    /** Lower all rules into the LUT; panics on inconsistent menus. */
    void compile();

    bool compiled() const { return compiled_; }

    /**
     * True unless no rule can write data memory: none names a
     * data-memory address (or an indexed mode that can reach one) as
     * the result of a writing op or as a VFlush's recycled op1. Known
     * once compiled.
     */
    bool writesDmem() const { return writesDmem_; }

    // ---- runtime accessors (every orchestrator tick: inline) --------
    const FsmLut &lut() const { return lut_; }

    const AddrMode &
    addrMode(int i) const
    {
        panicIf(i < 0 || i >= static_cast<int>(addrModes_.size()),
                "addrMode index ", i, " out of menu");
        return addrModes_[static_cast<std::size_t>(i)];
    }

    std::uint8_t
    routeMode(int i) const
    {
        panicIf(i < 0 || i >= static_cast<int>(routeModes_.size()),
                "routeMode index ", i, " out of menu");
        return routeModes_[static_cast<std::size_t>(i)];
    }

    const MsgMode &
    msgMode(int i) const
    {
        panicIf(i < 0 || i >= static_cast<int>(msgModes_.size()),
                "msgMode index ", i, " out of menu");
        return msgModes_[static_cast<std::size_t>(i)];
    }

    const MetaUpdate &
    metaUpdate(int reg, int i) const
    {
        panicIf(reg < 0 || reg > 1, "metaUpdate: bad register");
        const auto &menu = metaUpdates_[reg];
        panicIf(i < 0 || i >= static_cast<int>(menu.size()),
                "metaUpdate index ", i, " out of menu");
        return menu[static_cast<std::size_t>(i)];
    }

    const PredicateSet &
    predicates(std::uint8_t state) const
    {
        panicIf(state >= kNumFsmStates, "predicates: state out of range");
        return predicates_[state];
    }

    std::uint8_t initialState() const { return initialState_; }
    std::uint8_t doneState() const { return doneState_; }
    ValueSel tagSel() const { return tagSel_; }
    std::uint16_t condConst() const { return condConst_; }
    std::uint16_t condConstB() const { return condConstB_; }
    std::uint8_t mergeMsgId() const { return mergeMsgId_; }

  private:
    std::string name_;
    std::vector<AddrMode> addrModes_;
    std::vector<std::uint8_t> routeModes_;
    std::vector<MsgMode> msgModes_;
    std::vector<MetaUpdate> metaUpdates_[2];
    PredicateSet predicates_[kNumFsmStates];
    std::deque<Rule> rules_; // deque: rule() returns stable references
    FsmLut lut_;
    std::uint8_t initialState_ = 0;
    std::uint8_t doneState_ = 0;
    ValueSel tagSel_ = ValueSel::InputValue;
    std::uint16_t condConst_ = 0;
    std::uint16_t condConstB_ = 0;
    std::uint8_t mergeMsgId_ = 0; // kMsgNone
    bool writesDmem_ = true;
    bool compiled_ = false;
};

} // namespace canon

#endif // CANON_ORCH_PROGRAM_HH
