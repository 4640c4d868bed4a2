#include "orch/program.hh"

#include <algorithm>

#include "common/logging.hh"

namespace canon
{

// ---------------------------------------------------------------------
// Rule
// ---------------------------------------------------------------------

Rule &
Rule::onMsg(std::uint8_t id)
{
    msgId_ = id;
    return *this;
}

Rule &
Rule::onNoMsg()
{
    msgId_ = kMsgNone;
    return *this;
}

int
Rule::predBit(Predicate p) const
{
    for (int i = 0; i < kNumCondBits; ++i)
        if (preds_[static_cast<std::size_t>(i)] == p)
            return i;
    panic("Rule: predicate ", static_cast<int>(p),
          " is not in the condition set of state ",
          static_cast<int>(state_));
}

Rule &
Rule::when(Predicate p)
{
    const int b = predBit(p);
    predMask_ |= 1 << b;
    predVal_ |= 1 << b;
    return *this;
}

Rule &
Rule::whenNot(Predicate p)
{
    const int b = predBit(p);
    predMask_ |= 1 << b;
    predVal_ &= static_cast<std::uint8_t>(~(1 << b));
    return *this;
}

Rule &
Rule::op(OpCode o)
{
    fields_.peOp = o;
    return *this;
}

Rule &
Rule::op1(int addr_mode)
{
    fields_.op1Mode = static_cast<std::uint8_t>(addr_mode);
    return *this;
}

Rule &
Rule::op2(int addr_mode)
{
    fields_.op2Mode = static_cast<std::uint8_t>(addr_mode);
    return *this;
}

Rule &
Rule::res(int addr_mode)
{
    fields_.resMode = static_cast<std::uint8_t>(addr_mode);
    return *this;
}

Rule &
Rule::route(int route_mode)
{
    fields_.routeMode = static_cast<std::uint8_t>(route_mode);
    return *this;
}

Rule &
Rule::msg(int msg_mode)
{
    fields_.msgMode = static_cast<std::uint8_t>(msg_mode);
    return *this;
}

Rule &
Rule::buffer(BufferOp b)
{
    fields_.bufferOp = b;
    return *this;
}

Rule &
Rule::meta0(int upd)
{
    fields_.metaUpd0 = static_cast<std::uint8_t>(upd);
    return *this;
}

Rule &
Rule::meta1(int upd)
{
    fields_.metaUpd1 = static_cast<std::uint8_t>(upd);
    return *this;
}

Rule &
Rule::consumeInput()
{
    fields_.consumeInput = true;
    return *this;
}

Rule &
Rule::consumeMsg()
{
    fields_.consumeMsg = true;
    return *this;
}

Rule &
Rule::westFeed(WestFeed w)
{
    fields_.westFeed = w;
    return *this;
}

Rule &
Rule::outRec()
{
    fields_.emitOutRec = true;
    return *this;
}

Rule &
Rule::stallable()
{
    fields_.stallable = true;
    return *this;
}

Rule &
Rule::next(std::uint8_t state)
{
    fields_.nextState = state;
    return *this;
}

bool
Rule::matches(std::uint8_t msg_id, std::uint8_t cond_bits) const
{
    if (msgId_.has_value()) {
        if (*msgId_ == kMsgNone) {
            if (msg_id != kMsgNone)
                return false;
        } else if (msg_id != *msgId_) {
            return false;
        }
    }
    return (cond_bits & predMask_) == predVal_;
}

// ---------------------------------------------------------------------
// OrchProgram
// ---------------------------------------------------------------------

namespace
{

/** True if @p m can generate a data-memory address. */
bool
reachesDmem(const AddrMode &m)
{
    namespace as = addrspace;
    switch (m.kind) {
      case AddrMode::Kind::Fixed:
        return as::region(m.base) == AddrRegion::Dmem;
      case AddrMode::Kind::Indexed:
        // base + ((value & mask) << shift), wrapping at 16 bits.
        return m.base < as::kDmemBase + as::kDmemSize || m.shift >= 16 ||
               m.base + (std::uint32_t{m.mask} << m.shift) > 0xFFFF;
      default: // Null, Zero and the scratchpad modes
        return false;
    }
}

} // namespace

OrchProgram::OrchProgram(std::string name) : name_(std::move(name))
{
    // Mode index 0 is always the neutral entry so unset fields decode
    // to "do nothing".
    addrModes_.push_back(AddrMode::null());
    routeModes_.push_back(0);
    msgModes_.push_back(MsgMode::none());
    metaUpdates_[0].push_back(MetaUpdate::nop());
    metaUpdates_[1].push_back(MetaUpdate::nop());
    for (auto &set : predicates_)
        set.fill(Predicate::False);
}

int
OrchProgram::addAddrMode(const AddrMode &m)
{
    panicIf(addrModes_.size() >= kNumAddrModes, "OrchProgram ", name_,
            ": address-mode menu full (", kNumAddrModes, ")");
    addrModes_.push_back(m);
    return static_cast<int>(addrModes_.size()) - 1;
}

int
OrchProgram::addRouteMode(std::uint8_t route_mask)
{
    panicIf(routeModes_.size() >= kNumRouteModes, "OrchProgram ", name_,
            ": route-mode menu full");
    routeModes_.push_back(route_mask);
    return static_cast<int>(routeModes_.size()) - 1;
}

int
OrchProgram::addMsgMode(const MsgMode &m)
{
    panicIf(msgModes_.size() >= kNumMsgModes, "OrchProgram ", name_,
            ": message-mode menu full");
    msgModes_.push_back(m);
    return static_cast<int>(msgModes_.size()) - 1;
}

int
OrchProgram::addMetaUpdate(int reg, const MetaUpdate &u)
{
    panicIf(reg < 0 || reg > 1, "OrchProgram: bad meta register ", reg);
    auto &menu = metaUpdates_[reg];
    panicIf(menu.size() >= kNumMetaUpdates, "OrchProgram ", name_,
            ": meta-update menu full for reg ", reg);
    menu.push_back(u);
    return static_cast<int>(menu.size()) - 1;
}

void
OrchProgram::setPredicates(std::uint8_t state, const PredicateSet &preds)
{
    panicIf(state >= kNumFsmStates, "setPredicates: state out of range");
    predicates_[state] = preds;
}

Rule &
OrchProgram::rule(std::uint8_t state)
{
    panicIf(state >= kNumFsmStates, "rule: state out of range");
    panicIf(compiled_, "OrchProgram ", name_,
            ": adding rules after compile()");
    rules_.emplace_back(state, predicates_[state]);
    return rules_.back();
}

void
OrchProgram::compile()
{
    panicIf(compiled_, "OrchProgram ", name_, ": compiled twice");
    for (int state = 0; state < kNumFsmStates; ++state) {
        for (int msg_id = 0; msg_id < 8; ++msg_id) {
            for (int cond = 0; cond < (1 << kNumCondBits); ++cond) {
                const auto idx = lutIndex(
                    static_cast<std::uint8_t>(state),
                    static_cast<std::uint8_t>(msg_id),
                    static_cast<std::uint8_t>(cond));
                const Rule *hit = nullptr;
                for (const auto &r : rules_) {
                    if (r.state() == state &&
                        r.matches(static_cast<std::uint8_t>(msg_id),
                                  static_cast<std::uint8_t>(cond))) {
                        hit = &r;
                        break;
                    }
                }
                if (hit) {
                    lut_.set(idx, hit->fields());
                } else {
                    // Safe default: self-loop NOP, consume nothing.
                    OutputFields f;
                    f.nextState = static_cast<std::uint8_t>(state);
                    lut_.set(idx, f);
                }
            }
        }
    }
    const auto dmem = [this](int mode) {
        return mode < static_cast<int>(addrModes_.size()) &&
               reachesDmem(addrModes_[static_cast<std::size_t>(mode)]);
    };
    writesDmem_ = std::any_of(rules_.begin(), rules_.end(),
                              [&](const Rule &r) {
        const OutputFields &f = r.fields();
        switch (f.peOp) {
          case OpCode::VFlush:
            return dmem(f.op1Mode) || dmem(f.resMode);
          case OpCode::SvMac:
          case OpCode::VvMac:
          case OpCode::VvMacW:
          case OpCode::VAdd:
          case OpCode::VMov:
            return dmem(f.resMode);
          default: // Nop and Hold write nothing; LOAD rejects the rest
            return false;
        }
    });
    compiled_ = true;
}

} // namespace canon
