#include "pe/pe.hh"

#include <bit>

namespace canon
{

namespace as = addrspace;

namespace
{
constexpr DecodedInst kNop{};
}

Pe::Pe(const PeGeometry &geo, int dmem_slots, int spad_slots)
    : geo_(geo),
      name_("pe" + std::to_string(geo.row) + "_" +
            std::to_string(geo.col)),
      dmem_("dmem", dmem_slots), spad_("spad", spad_slots)
{
}

void
Pe::writeDest(const Operand &a, const Vec4 &v)
{
    switch (a.region) {
      case AddrRegion::Dmem:
        dmem_.write(a.offset, v);
        return;
      case AddrRegion::Spad:
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
      default: // PortIn, Zero, Invalid
        break;
    }
    panic(name_, ": illegal destination address ", as::toString(a.addr));
}

void
Pe::commitStage(const StageReg &ex, std::uint8_t kills)
{
    if (!ex.valid)
        return;
    const DecodedInst &inst = ex.inst;

    // @p kills are the writes the instruction one stage behind makes
    // dead (resolve()): their values only travel the forwarding network.
    bool sent = false; // the result left through an output port
    switch (inst.op) {
      case OpCode::SvMac:
      case OpCode::VvMac:
      case OpCode::VvMacW:
      case OpCode::VAdd:
      case OpCode::VMov:
        if (!(kills & kKillRes))
            writeDest(inst.res, ex.result);
        sent = inst.res.region == AddrRegion::PortOut;
        break;
      case OpCode::VFlush:
        writeDest(inst.res, ex.result);
        sent = inst.res.region == AddrRegion::PortOut;
        // Recycle the flushed location: clear it to zero. Uses the
        // location's write port (LOAD read it two cycles ago), which
        // res may already have taken.
        if (!(kills & kKillOp1)) {
            if (inst.op1.region == inst.res.region) {
                panicIf(inst.res.region == AddrRegion::Dmem, name_,
                        ": two data-memory writes in one instruction "
                        "window");
                panicIf(inst.res.region == AddrRegion::Spad, name_,
                        ": two scratchpad writes in one instruction "
                        "window");
            }
            writeDest(inst.op1, Vec4{});
        }
        break;
      default: // Nop and Hold write nothing
        break;
    }

    // Pass-through circuit routes emit at COMMIT so that a neighbour's
    // staggered LOAD sees the data exactly when its copy of the same
    // instruction arrives. One transfer per direction per cycle: a
    // route may not take the port the result just left through.
    if (inst.route & kRouteN2S) {
        panicIf(sent && inst.res.offset == static_cast<Addr>(Dir::South),
                "Router: second S_OUT transfer in one cycle (one per "
                "direction per cycle)");
        router_.writeOut(Dir::South, ex.in[static_cast<int>(Dir::North)]);
    }
    if (inst.route & kRouteW2E) {
        panicIf(sent && inst.res.offset == static_cast<Addr>(Dir::East),
                "Router: second E_OUT transfer in one cycle (one per "
                "direction per cycle)");
        router_.writeOut(Dir::East, ex.in[static_cast<int>(Dir::West)]);
    }
}

void
Pe::executeStage(const StageReg &ld)
{
    // The result was computed at LOAD from the values LOAD latched;
    // EXECUTE counts the lane's work in its own cycle.
    if (!ld.valid)
        return;
    switch (ld.inst.op) {
      case OpCode::SvMac:
      case OpCode::VvMac:
      case OpCode::VvMacW:
        macOps_ += kSimdWidth;
        break;
      case OpCode::VAdd:
      case OpCode::VMov:
      case OpCode::VFlush:
        aluOps_ += kSimdWidth;
        break;
      default:
        break;
    }
}

void
Pe::loadStage(const DecodedInst &inst, const StageReg &fwd, StageReg &ld)
{
    ld.inst = inst;
    ld.valid = !inst.isNop();
    if (!ld.valid)
        return;
    if (inst.fault != LoadFault::None || !router_.canPop(inst.pops))
        [[unlikely]] loadFault(inst);

    // Each input port the instruction names is popped once; every
    // reader of the port, routes included, shares the vector.
    for (unsigned m = inst.pops; m != 0; m &= m - 1) {
        const int d = std::countr_zero(m);
        ld.in[d] = router_.readIn(static_cast<Dir>(d));
    }
    const auto fetch = [&](Src s, Addr off) -> Vec4 {
        switch (s) {
          case Src::Zero:
            return Vec4{};
          case Src::Forward:
            return fwd.result;
          case Src::Dmem:
            return dmem_.read(off);
          case Src::Spad:
            return spad_.read(off);
          case Src::Reg:
            ++regReads_;
            return regs_[off];
          default:
            return ld.in[static_cast<int>(s) - static_cast<int>(Src::PortN)];
        }
    };
    const Vec4 a = fetch(inst.src[kReadOp1], inst.op1.offset);
    const Vec4 b = fetch(inst.src[kReadOp2], inst.op2.offset);
    Vec4 r = fetch(inst.src[kReadAcc], inst.res.offset);
    switch (inst.op) {
      case OpCode::SvMac:
        r.mac(a[0], b);
        break;
      case OpCode::VvMac:
      case OpCode::VvMacW:
        r.mac(a, b);
        break;
      case OpCode::VAdd:
        r = a + b;
        break;
      case OpCode::VMov:
      case OpCode::VFlush:
        r = a;
        break;
      default: // Nop and Hold read no addend: the zero vector
        break;
    }
    ld.result = r;
}

void
Pe::loadFault(const DecodedInst &inst)
{
    const std::array<const Operand *, kLoadReads> operand{
        &inst.op1, &inst.op2, &inst.res};
    std::uint8_t popped = 0;
    const auto pop = [&](Dir d) {
        if (!(popped & dirBit(d)))
            router_.readIn(d); // panics if unbound or empty
        popped |= dirBit(d);
    };
    const int reads = inst.fault == LoadFault::None
                          ? static_cast<int>(kLoadReads)
                          : inst.faultAt;
    for (int i = 0; i < reads; ++i) {
        const Src s = inst.src[i];
        if (s == Src::Dmem)
            dmem_.checkSlot(operand[i]->offset);
        else if (s == Src::Spad)
            spad_.checkSlot(operand[i]->offset);
        else if (s >= Src::PortN)
            pop(static_cast<Dir>(static_cast<int>(s) -
                                 static_cast<int>(Src::PortN)));
    }
    switch (inst.fault) {
      case LoadFault::None:
        break;
      case LoadFault::Opcode:
        panic(name_, ": corrupt opcode at LOAD");
      case LoadFault::TwoDmemReads:
        panic(name_, ": two data-memory reads in one instruction");
      case LoadFault::TwoSpadReads:
        panic(name_, ": two scratchpad reads in one instruction");
      case LoadFault::IllegalOperand:
        panic(name_, ": illegal operand address ",
              as::toString(operand[inst.faultAt]->addr));
    }
    if (inst.route & kRouteN2S)
        pop(Dir::North);
    if (inst.route & kRouteW2E)
        pop(Dir::West);
    panic(name_, ": LOAD found no faulty port");
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

    // Stages run newest-result-visible-first: COMMIT applies the
    // in-flight write, EXECUTE counts its work, LOAD then reads with
    // both visible -- exact sequential semantics. *ld_ holds next
    // cycle's EXECUTE/COMMIT register; LOAD refills *ex_, which COMMIT
    // has just retired. tickCommit() swaps the two roles.
    const bool committed = ex_->valid;
    commitStage(*ex_, ld_->inst.kills);
    executeStage(*ld_);

    // The spatial firing rule reads port occupancy *after* this PE's
    // own COMMIT staged its pushes, exactly as the held hardware
    // pipeline would observe it. A held instruction repeats instead of
    // following the row's issue order, so the PE resolves it against
    // the instruction it loaded last cycle.
    if (mode_ == PeMode::Spatial) {
        held_ = spatialReady(*inst) ? *inst : kNop;
        resolve(ld_->inst, held_);
        inst = &held_;
    }
    loadStage(*inst, *ld_, *ex_);

    if (ex_->valid || ld_->valid || committed)
        ++busyCycles_;
}

} // namespace canon
