#include "orch/orchestrator.hh"

namespace canon
{

Orchestrator::Orchestrator(std::string name, int spad_capacity,
                           StatGroup &stats, const Cycle &now,
                           const OrchPolicy &policy)
    : name_(std::move(name)),
      fifo_(spad_capacity, stats, policy.tagBanks), now_(now),
      flushPolicy_(policy.spadFlush),
      flushThreshold_(policy.spadFlush == SpadFlushPolicy::Adaptive
                          ? spadHighWaterMark(spad_capacity - 1)
                          : spad_capacity - 1),
      lutLookups_(stats.counter("lutLookups")),
      instIssued_(stats.counter("instIssued")),
      macIssued_(stats.counter("macIssued")),
      stallCycles_(stats.counter("stallCycles")),
      stateTransitions_(stats.counter("stateTransitions")),
      msgsSent_(stats.counter("msgsSent")),
      fwdAhead_(stats.counter("fwdAhead")),
      fwdBehind_(stats.counter("fwdBehind")),
      spadResidentSum_(stats.counter("spadResidentSum")),
      spadCapCycles_(stats.counter("spadCapCycles"))
{
}

void
Orchestrator::loadProgram(const OrchProgram *prog)
{
    panicIf(!prog, "Orchestrator ", name_, ": null program");
    panicIf(!prog->compiled(), "Orchestrator ", name_,
            ": program '", prog->name(), "' not compiled");
    prog_ = prog;
    state_ = prog->initialState();
    meta_[0] = meta_[1] = 0;
    rowCursor_ = -1;
    fifo_.reset();
}

void
Orchestrator::setStream(MetaStream stream)
{
    stream_ = std::move(stream);
}

bool
Orchestrator::done() const
{
    return prog_ && state_ == prog_->doneState();
}

bool
Orchestrator::evalPredicate(Predicate p, const MetaToken &token,
                            const OrchMsg &msg, bool msg_valid)
{
    switch (p) {
      case Predicate::False:
        return false;
      case Predicate::True:
        return true;
      case Predicate::InputIsNnz:
        return token.kind == TokenKind::Nnz;
      case Predicate::InputIsRowEnd:
        return token.kind == TokenKind::RowEnd;
      case Predicate::InputIsEnd:
        return token.kind == TokenKind::End;
      case Predicate::InputIsAux:
        return token.kind == TokenKind::Aux;
      case Predicate::MsgTagManaged:
        return msg_valid && fifo_.search(msg.value).has_value();
      case Predicate::BufferAtCap:
        // Eager: the hard resident cap. Adaptive: the high-water
        // mark, so flush rules engage while headroom remains.
        return fifo_.size() >= flushThreshold_;
      case Predicate::BufferEmpty:
        return fifo_.empty();
      case Predicate::MsgValueEqMeta0:
        return msg_valid && msg.value == meta_[0];
      case Predicate::Meta1EqConst:
        return meta_[1] == prog_->condConst();
      case Predicate::Meta1GtMeta0:
        return meta_[1] > meta_[0];
      case Predicate::Meta1MinusMeta0LtB:
        return static_cast<std::uint16_t>(meta_[1] - meta_[0]) <
               prog_->condConstB();
      case Predicate::MsgMinusMeta0LtB:
        return msg_valid &&
               static_cast<std::uint16_t>(msg.value - meta_[0]) <
                   prog_->condConstB();
      case Predicate::NumPredicates:
        break;
    }
    panic("Orchestrator ", name_, ": bad predicate");
}

std::uint8_t
Orchestrator::condBits(const MetaToken &token, const OrchMsg &msg,
                       bool msg_valid)
{
    const auto &preds = prog_->predicates(state_);
    std::uint8_t bits = 0;
    for (int i = 0; i < kNumCondBits; ++i) {
        if (evalPredicate(preds[static_cast<std::size_t>(i)], token, msg,
                          msg_valid))
            bits |= 1 << i;
    }
    return bits;
}

std::uint16_t
Orchestrator::selValue(ValueSel sel, const MetaToken &token,
                       const OrchMsg &msg) const
{
    switch (sel) {
      case ValueSel::Zero:
        return 0;
      case ValueSel::InputValue:
        return token.value;
      case ValueSel::MsgValue:
        return msg.value;
      case ValueSel::Meta0:
        return meta_[0];
      case ValueSel::Meta1:
        return meta_[1];
      case ValueSel::HeadTag:
        return fifo_.headTag();
    }
    panic("Orchestrator ", name_, ": bad value selector");
}

Addr
Orchestrator::evalAddr(const AddrMode &m, const MetaToken &token,
                       const OrchMsg &msg)
{
    switch (m.kind) {
      case AddrMode::Kind::Null:
        return addrspace::kNullAddr;
      case AddrMode::Kind::Zero:
        return addrspace::kZeroAddr;
      case AddrMode::Kind::Fixed:
        return m.base;
      case AddrMode::Kind::Indexed: {
        const std::uint16_t v = selValue(m.sel, token, msg);
        return static_cast<Addr>(
            m.base + ((v & m.mask) << m.shift));
      }
      case AddrMode::Kind::SpadHead:
        return addrspace::spad(fifo_.headSlot());
      case AddrMode::Kind::SpadTail:
        return addrspace::spad(fifo_.tailSlot());
      case AddrMode::Kind::SpadSearch: {
        auto slot = fifo_.search(msg.value);
        panicIf(!slot, "Orchestrator ", name_,
                ": SpadSearch for unmanaged tag ", msg.value,
                " (rule fired without MsgTagManaged guard?)");
        return addrspace::spad(*slot);
      }
    }
    panic("Orchestrator ", name_, ": bad address mode");
}

bool
Orchestrator::southHasSpace() const
{
    for (auto *ch : southData_)
        if (!ch->canPush())
            return false;
    return !msgOut_ || msgOut_->canPush();
}

void
Orchestrator::applyMetaUpdate(int reg, const MetaUpdate &u,
                              const MetaToken &token, const OrchMsg &msg)
{
    auto &m = meta_[reg];
    switch (u.kind) {
      case MetaUpdate::Kind::Nop:
        return;
      case MetaUpdate::Kind::Set:
        m = static_cast<std::uint16_t>(u.konst);
        return;
      case MetaUpdate::Kind::AddConst:
        m = static_cast<std::uint16_t>(m + u.konst);
        return;
      case MetaUpdate::Kind::LoadInput:
        m = token.value;
        return;
      case MetaUpdate::Kind::LoadMsg:
        m = msg.value;
        return;
    }
    panic("Orchestrator ", name_, ": bad meta update");
}

/**
 * Adaptive flush, message side: a merge-protocol message (SpMM: a
 * psum tagged with its row) whose row this orchestrator has not
 * materialized yet cannot merge here -- under the eager policy it
 * would be relayed south unmerged, and at high resident-row counts
 * those misses cascade toward the all-miss quadratic traffic regime
 * (docs/resident_rows.md). Instead, leave it at the head of the
 * inbound channel: the resulting backpressure paces the upstream row
 * to this row's progress, and the merge fires as soon as the row is
 * pushed. Once the local stream is exhausted (End token) the cursor
 * can never advance, so everything is relayed as under eager -- this
 * bounds the hold and keeps the drain phase deadlock-free.
 */
bool
Orchestrator::holdMergeMsg(const MetaToken &token, const OrchMsg &msg)
{
    if (flushPolicy_ != SpadFlushPolicy::Adaptive)
        return false;
    if (msg.id != prog_->mergeMsgId() || msg.id == kMsgNone)
        return false;
    if (token.kind == TokenKind::End)
        return false;
    if (static_cast<std::int32_t>(msg.value) <= rowCursor_)
        return false;
    // The admission probe is real associative work: charge it.
    return !fifo_.search(msg.value).has_value();
}

void
Orchestrator::tickCompute()
{
    if (!prog_ || !pipe_)
        return;

    // Per-cycle scratchpad occupancy probes (stall cycles included):
    // resident-row pressure and cycles pinned at the resident cap.
    spadResidentSum_ += static_cast<std::uint64_t>(fifo_.size());
    if (fifo_.atResidentCap())
        ++spadCapCycles_;

    // 1. Latch inputs.
    const MetaToken token = stream_.peek(now_);
    bool msg_valid = msgIn_ && !msgIn_->empty();
    OrchMsg msg = msg_valid ? msgIn_->front() : OrchMsg{};
    if (msg_valid && holdMergeMsg(token, msg)) {
        msg_valid = false;
        msg = OrchMsg{};
    }

    // 2. Condition computation + LUT lookup.
    const auto idx =
        lutIndex(state_, msg_valid ? msg.id : kMsgNone,
                 condBits(token, msg, msg_valid));
    const OutputFields &f = prog_->lut().lookup(idx);
    ++lutLookups_;

    // 3. Structural stall: actions that push south wait for space.
    if (f.stallable && !southHasSpace()) {
        ++stallCycles_;
        pipe_->issue(nopInst());
        return;
    }

    // 4. Buffer push happens before address generation: the head/tag
    //    views used by a flush must include the entry materialized
    //    this cycle (a depth-1 buffer flushes the row it just pushed).
    if (f.bufferOp == BufferOp::Push || f.bufferOp == BufferOp::PushPop) {
        const std::uint16_t tag = selValue(prog_->tagSel(), token, msg);
        rowCursor_ = tag;
        fifo_.push(tag);
    }

    // 5. Address generation and instruction issue.
    Instruction inst;
    inst.op = f.peOp;
    inst.op1 = evalAddr(prog_->addrMode(f.op1Mode), token, msg);
    inst.op2 = evalAddr(prog_->addrMode(f.op2Mode), token, msg);
    inst.res = evalAddr(prog_->addrMode(f.resMode), token, msg);
    inst.route = prog_->routeMode(f.routeMode);
    pipe_->issue(inst);
    if (!inst.isNop())
        ++instIssued_;
    if (isMacOp(inst.op))
        ++macIssued_;

    // 6. West-edge data injection, aligned with the issued instruction.
    if (f.westFeed != WestFeed::None) {
        panicIf(!westChan_, "Orchestrator ", name_,
                ": westFeed with no west channel bound");
        Vec4 v;
        if (f.westFeed == WestFeed::TokenData)
            v[0] = token.data;
        westChan_->push(v);
    }

    // 7. Message generation.
    const MsgMode &mm = prog_->msgMode(f.msgMode);
    if (mm.kind != MsgMode::Kind::None) {
        panicIf(!msgOut_, "Orchestrator ", name_,
                ": message emitted with no south orchestrator bound");
        OrchMsg out;
        if (mm.kind == MsgMode::Kind::Forward) {
            panicIf(!msg_valid, "Orchestrator ", name_,
                    ": forwarding with no incoming message");
            out = msg;
            // Diagnostics: which side of the local cursor a relayed
            // value falls on (load-imbalance fingerprint).
            if (static_cast<std::int16_t>(msg.value - meta_[0]) >= 0)
                ++fwdAhead_;
            else
                ++fwdBehind_;
        } else {
            out.id = mm.id;
            out.value = selValue(mm.sel, token, msg);
        }
        msgOut_->push(out);
        ++msgsSent_;
    }

    // 8. Output bookkeeping for east-edge collectors.
    if (f.emitOutRec) {
        panicIf(!outRecs_, "Orchestrator ", name_,
                ": outRec with no collector queue bound");
        outRecs_->push_back({meta_[0], token.value});
    }

    // 9. Buffer pop retires the oldest entry after the flush
    //    referenced it.
    if (f.bufferOp == BufferOp::Pop || f.bufferOp == BufferOp::PushPop)
        fifo_.pop();

    // 10. Register updates and consumption.
    applyMetaUpdate(0, prog_->metaUpdate(0, f.metaUpd0), token, msg);
    applyMetaUpdate(1, prog_->metaUpdate(1, f.metaUpd1), token, msg);
    if (f.consumeInput)
        stream_.advance();
    if (f.consumeMsg) {
        panicIf(!msg_valid, "Orchestrator ", name_,
                ": consuming a message that is not there");
        msgIn_->pop();
    }

    // 11. State transition.
    if (f.nextState != state_) {
        ++stateTransitions_;
        state_ = f.nextState;
    }
}

} // namespace canon
