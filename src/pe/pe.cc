#include "pe/pe.hh"

namespace canon
{

namespace as = addrspace;

namespace
{
constexpr DecodedInst kNop{};
}

Pe::Pe(const PeGeometry &geo, int dmem_slots, int spad_slots,
       StatGroup &stats)
    : geo_(geo),
      name_("pe" + std::to_string(geo.row) + "_" +
            std::to_string(geo.col)),
      dmem_("dmem", dmem_slots, stats), spad_("spad", spad_slots, stats),
      router_(stats)
{
    stats.add("busyCycles", busyCycles_);
    stats.add("macOps", macOps_);
    stats.add("aluOps", aluOps_);
    stats.add("regReads", regReads_);
    stats.add("regWrites", regWrites_);
}

bool
Pe::idle() const
{
    return !ld_->valid && !ex_->valid;
}

Vec4
Pe::readPort(Dir d)
{
    const auto bit =
        static_cast<std::uint8_t>(1u << static_cast<int>(d));
    auto &cached = portCache_[static_cast<int>(d)];
    if (!(portCacheValid_ & bit)) {
        cached = router_.readIn(d);
        portCacheValid_ |= bit;
    }
    return cached;
}

Vec4
Pe::readOperand(const Operand &a, const StageReg &fwd)
{
    // Forwarding: the instruction one stage ahead commits next cycle;
    // a read of a local location it writes must observe its value via
    // the forwarding network instead of the array (not counted as a
    // memory access). VFlush additionally zeroes its op1 slot -- the
    // slot the circular psum buffer hands to the very next row -- so
    // that recycle-write forwards as well.
    const bool local_read = a.region != AddrRegion::PortIn &&
                            a.region != AddrRegion::PortOut;
    if (fwd.valid && local_read) {
        if (fwd.inst.op == OpCode::VFlush && fwd.inst.op1.addr == a.addr)
            return Vec4{};
        if (fwd.inst.res.addr == a.addr)
            return fwd.result;
    }

    switch (a.region) {
      case AddrRegion::Dmem:
        ++dmemReadsThisCycle_;
        panicIf(dmemReadsThisCycle_ > 1, name_,
                ": two data-memory reads in one instruction");
        return dmem_.read(a.offset);
      case AddrRegion::Spad:
        ++spadReadsThisCycle_;
        panicIf(spadReadsThisCycle_ > 1, name_,
                ": two scratchpad reads in one instruction");
        return spad_.read(a.offset);
      case AddrRegion::Reg:
        ++regReads_;
        return regs_[a.offset];
      case AddrRegion::PortIn:
        return readPort(static_cast<Dir>(a.offset));
      case AddrRegion::Zero:
        return Vec4{};
      case AddrRegion::Null:
      case AddrRegion::PortOut:
      case AddrRegion::Invalid:
        break;
    }
    panic(name_, ": illegal operand address ", as::toString(a.addr));
}

void
Pe::writeDest(const Operand &a, const Vec4 &v)
{
    switch (a.region) {
      case AddrRegion::Dmem:
        ++dmemWritesThisCycle_;
        panicIf(dmemWritesThisCycle_ > 1, name_,
                ": two data-memory writes in one instruction window");
        dmem_.write(a.offset, v);
        return;
      case AddrRegion::Spad:
        ++spadWritesThisCycle_;
        panicIf(spadWritesThisCycle_ > 1, name_,
                ": two scratchpad writes in one instruction window");
        spad_.write(a.offset, v);
        return;
      case AddrRegion::Reg:
        ++regWrites_;
        regs_[a.offset] = v;
        return;
      case AddrRegion::PortOut:
        router_.writeOut(static_cast<Dir>(a.offset), v);
        return;
      case AddrRegion::Null:
        return; // discard
      case AddrRegion::PortIn:
      case AddrRegion::Zero:
      case AddrRegion::Invalid:
        break;
    }
    panic(name_, ": illegal destination address ", as::toString(a.addr));
}

void
Pe::commitStage(const StageReg &ex)
{
    if (!ex.valid)
        return;
    const DecodedInst &inst = ex.inst;
    const StageReg &ld = *ld_;

    // Write coalescing: if the instruction one stage behind overwrites
    // the same local location (the common back-to-back accumulation
    // run, or a flush recycling the slot), this write is dead -- the
    // value only ever travels the forwarding network. Real pipelines
    // keep the run in the accumulate register and commit once, which
    // is what keeps the scratchpad's power share modest at low
    // sparsity (Figure 11).
    auto next_overwrites = [&](const Operand &a) {
        if (!ld.valid)
            return false;
        if (a.region == AddrRegion::PortOut || a.region == AddrRegion::Null)
            return false;
        if (ld.inst.res.addr == a.addr && ld.inst.op != OpCode::Nop &&
            ld.inst.op != OpCode::Hold)
            return true;
        return ld.inst.op == OpCode::VFlush && ld.inst.op1.addr == a.addr;
    };

    switch (inst.op) {
      case OpCode::Nop:
      case OpCode::Hold:
        break;
      case OpCode::SvMac:
      case OpCode::VvMac:
      case OpCode::VvMacW:
      case OpCode::VAdd:
      case OpCode::VMov:
        if (!next_overwrites(inst.res))
            writeDest(inst.res, ex.result);
        break;
      case OpCode::VFlush:
        writeDest(inst.res, ex.result);
        // Recycle the flushed location: clear it to zero. Uses the
        // location's write port (LOAD read it two cycles ago).
        if (!next_overwrites(inst.op1))
            writeDest(inst.op1, Vec4{});
        break;
      case OpCode::NumOpCodes:
        panic(name_, ": corrupt opcode at COMMIT");
    }

    // Pass-through circuit routes emit at COMMIT so that a neighbour's
    // staggered LOAD sees the data exactly when its copy of the same
    // instruction arrives.
    if (ex.routeN2SValid)
        router_.writeOut(Dir::South, ex.routeN2S);
    if (ex.routeW2EValid)
        router_.writeOut(Dir::East, ex.routeW2E);
}

void
Pe::executeStage(StageReg &ld)
{
    if (!ld.valid)
        return;

    Vec4 r;
    switch (ld.inst.op) {
      case OpCode::Nop:
      case OpCode::Hold:
        break;
      case OpCode::SvMac:
        r = ld.acc;
        r.mac(ld.a[0], ld.b);
        macOps_ += kSimdWidth;
        break;
      case OpCode::VvMac:
        r = ld.acc;
        r.mac(ld.a, ld.b);
        macOps_ += kSimdWidth;
        break;
      case OpCode::VvMacW:
        r = ld.acc;
        r.mac(ld.a, ld.b);
        macOps_ += kSimdWidth;
        break;
      case OpCode::VAdd:
        r = ld.a;
        r += ld.b;
        aluOps_ += kSimdWidth;
        break;
      case OpCode::VMov:
      case OpCode::VFlush:
        r = ld.a;
        aluOps_ += kSimdWidth;
        break;
      case OpCode::NumOpCodes:
        panic(name_, ": corrupt opcode at EXECUTE");
    }
    ld.result = r;
}

void
Pe::loadStage(const DecodedInst &inst, const StageReg &fwd, StageReg &ld)
{
    ld.inst = inst;
    ld.valid = !inst.isNop();
    if (!ld.valid)
        return;

    switch (inst.op) {
      case OpCode::Nop:
      case OpCode::Hold:
        break;
      case OpCode::SvMac:
      case OpCode::VvMac:
        ld.a = readOperand(inst.op1, fwd);
        ld.b = readOperand(inst.op2, fwd);
        ld.acc = readOperand(inst.res, fwd);
        break;
      case OpCode::VvMacW:
        ld.a = readOperand(inst.op1, fwd);
        ld.b = readOperand(inst.op2, fwd);
        ld.acc = readPort(Dir::West);
        break;
      case OpCode::VAdd:
        ld.a = readOperand(inst.op1, fwd);
        ld.b = readOperand(inst.op2, fwd);
        break;
      case OpCode::VMov:
      case OpCode::VFlush:
        ld.a = readOperand(inst.op1, fwd);
        break;
      case OpCode::NumOpCodes:
        panic(name_, ": corrupt opcode at LOAD");
    }

    // Pass-through routes latch their value at LOAD.
    ld.routeN2SValid = inst.route & kRouteN2S;
    if (ld.routeN2SValid)
        ld.routeN2S = readPort(Dir::North);
    ld.routeW2EValid = inst.route & kRouteW2E;
    if (ld.routeW2EValid)
        ld.routeW2E = readPort(Dir::West);
}

bool
Pe::spatialReady(const DecodedInst &inst) const
{
    auto in_ready = [&](const Operand &a) {
        return a.region != AddrRegion::PortIn ||
               router_.hasInput(static_cast<Dir>(a.offset));
    };
    auto out_ready = [&](const Operand &a) {
        return a.region != AddrRegion::PortOut ||
               router_.canWriteOut(static_cast<Dir>(a.offset));
    };
    if (!in_ready(inst.op1) || !in_ready(inst.op2) ||
        !out_ready(inst.res))
        return false;
    if (inst.op == OpCode::VvMacW && !router_.hasInput(Dir::West))
        return false;
    if ((inst.route & kRouteN2S) &&
        (!router_.hasInput(Dir::North) ||
         !router_.canWriteOut(Dir::South)))
        return false;
    if ((inst.route & kRouteW2E) &&
        (!router_.hasInput(Dir::West) || !router_.canWriteOut(Dir::East)))
        return false;
    return true;
}

void
Pe::tickCompute()
{
    // Config mode: taps shift past without executing.
    const DecodedInst *inst = &kNop;
    if (pipe_ && mode_ != PeMode::Config)
        inst = &pipe_->tap(geo_.col);

    // Idle fast path: an empty pipeline looking at a NOP tap does no
    // work this cycle. Spatial mode is excluded -- its firing rule
    // reads channel occupancy that other components change within the
    // same compute phase, so it must be evaluated in stage order below.
    if (!ld_->valid && !ex_->valid && mode_ != PeMode::Spatial &&
        inst->isNop())
        return;

    router_.beginCycle();
    portCacheValid_ = 0;
    dmemReadsThisCycle_ = dmemWritesThisCycle_ = 0;
    spadReadsThisCycle_ = spadWritesThisCycle_ = 0;

    // Stages run newest-result-visible-first: COMMIT applies the
    // in-flight write, EXECUTE produces the forwardable result, LOAD
    // then reads with both visible -- exact sequential semantics.
    // EXECUTE computes in place, so *ld_ holds next cycle's
    // EXECUTE/COMMIT register; LOAD refills *ex_, which COMMIT has
    // just retired. tickCommit() swaps the two roles.
    const bool committed = ex_->valid;
    commitStage(*ex_);
    executeStage(*ld_);

    // The spatial firing rule reads port occupancy *after* this PE's
    // own COMMIT staged its pushes, exactly as the held hardware
    // pipeline would observe it.
    if (mode_ == PeMode::Spatial && !spatialReady(*inst))
        inst = &kNop;
    loadStage(*inst, *ld_, *ex_);

    if (ex_->valid || ld_->valid || committed)
        ++busyCycles_;
}

} // namespace canon
