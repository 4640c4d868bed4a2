/**
 * @file
 * ISA tests: unified address-space classification, decode at issue,
 * the NOP instruction, and resolve() against the per-PE rules it
 * replaces.
 */

#include <map>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "isa/instruction.hh"

namespace canon
{
namespace
{

namespace as = addrspace;

TEST(AddressSpace, RegionClassification)
{
    EXPECT_EQ(as::region(as::dmem(0)), AddrRegion::Dmem);
    EXPECT_EQ(as::region(as::dmem(1023)), AddrRegion::Dmem);
    EXPECT_EQ(as::region(as::spad(0)), AddrRegion::Spad);
    EXPECT_EQ(as::region(as::spad(255)), AddrRegion::Spad);
    EXPECT_EQ(as::region(as::reg(0)), AddrRegion::Reg);
    EXPECT_EQ(as::region(as::reg(15)), AddrRegion::Reg);
    EXPECT_EQ(as::region(as::portIn(Dir::North)), AddrRegion::PortIn);
    EXPECT_EQ(as::region(as::portOut(Dir::West)), AddrRegion::PortOut);
    EXPECT_EQ(as::region(as::kZeroAddr), AddrRegion::Zero);
    EXPECT_EQ(as::region(as::kNullAddr), AddrRegion::Null);
}

TEST(AddressSpace, OffsetsRoundTrip)
{
    EXPECT_EQ(as::offset(as::dmem(77)), 77);
    EXPECT_EQ(as::offset(as::spad(13)), 13);
    EXPECT_EQ(as::offset(as::reg(9)), 9);
    EXPECT_EQ(as::offset(as::portIn(Dir::South)),
              static_cast<Addr>(Dir::South));
}

TEST(AddressSpace, BoundsChecked)
{
    EXPECT_THROW(as::dmem(1024), PanicError);
    EXPECT_THROW(as::spad(256), PanicError);
    EXPECT_THROW(as::reg(16), PanicError);
    EXPECT_THROW(as::dmem(-1), PanicError);
}

TEST(AddressSpace, ToString)
{
    EXPECT_EQ(as::toString(as::dmem(5)), "DMEM[5]");
    EXPECT_EQ(as::toString(as::spad(3)), "SPAD[3]");
    EXPECT_EQ(as::toString(as::reg(2)), "R2");
    EXPECT_EQ(as::toString(as::portIn(Dir::North)), "N_IN");
    EXPECT_EQ(as::toString(as::portOut(Dir::South)), "S_OUT");
    EXPECT_EQ(as::toString(as::kZeroAddr), "ZERO");
    EXPECT_EQ(as::toString(as::kNullAddr), "NULL");
}

TEST(AddressSpace, DecodeMatchesRegionAndOffsetEverywhere)
{
    std::map<AddrRegion, int> count;
    for (int i = 0; i <= 0xFFFF; ++i) {
        const auto a = static_cast<Addr>(i);
        const Operand d = as::decode(a);
        ASSERT_EQ(d.addr, a);
        ASSERT_EQ(d.region, as::region(a)) << "address " << i;
        ASSERT_EQ(d.offset, as::offset(a)) << "address " << i;
        ++count[d.region];
    }
    // The layout in address_space.hh, region by region.
    EXPECT_EQ(count[AddrRegion::Dmem], as::kDmemSize);
    EXPECT_EQ(count[AddrRegion::Spad], as::kSpadSize);
    EXPECT_EQ(count[AddrRegion::Reg], as::kRegSize);
    EXPECT_EQ(count[AddrRegion::PortIn], kNumDirs);
    EXPECT_EQ(count[AddrRegion::PortOut], kNumDirs);
    EXPECT_EQ(count[AddrRegion::Zero], 1);
    EXPECT_EQ(count[AddrRegion::Null], 1);
}

TEST(Instruction, DecodeClassifiesEachOperand)
{
    Instruction i;
    i.op = OpCode::SvMac;
    i.op1 = as::portIn(Dir::West);
    i.op2 = as::dmem(7);
    i.res = as::spad(3);
    i.route = kRouteW2E;
    const DecodedInst d = decode(i);
    EXPECT_EQ(d.op, OpCode::SvMac);
    EXPECT_EQ(d.route, kRouteW2E);
    EXPECT_EQ(d.op1, (Operand{i.op1, AddrRegion::PortIn,
                              static_cast<Addr>(Dir::West)}));
    EXPECT_EQ(d.op2, (Operand{i.op2, AddrRegion::Dmem, 7}));
    EXPECT_EQ(d.res, (Operand{i.res, AddrRegion::Spad, 3}));
    EXPECT_EQ(decode(nopInst()), DecodedInst{});
    EXPECT_TRUE(DecodedInst{}.isNop());
}

TEST(Instruction, NopDefaults)
{
    const auto n = nopInst();
    EXPECT_TRUE(n.isNop());
    EXPECT_EQ(n.op, OpCode::Nop);
}

/**
 * The reference for resolve(): the rules a PE applied for itself, per
 * operand and cycle, before control was resolved once per row. LOAD
 * read each operand through readOperand() -- forwarding first, then
 * the region, counting memory reads and panicking on a second one or
 * an unreadable address -- and popped a port through a per-cycle cache
 * on its first read. COMMIT asked next_overwrites() of the instruction
 * one stage behind whether each write was dead. The outcome is kept in
 * resolve()'s vocabulary so the two can be compared field by field.
 */
struct PerPeLoad
{
    std::array<Src, kLoadReads> src{};
    std::uint8_t portCacheValid = 0;
    LoadFault panicked = LoadFault::None;
    int panicAt = 0;
    std::uint8_t dead = 0;
};

/** Pe::commitStage's next_overwrites(): @p ld is one stage behind. */
bool
nextOverwrites(const DecodedInst &ld, const Operand &a)
{
    if (ld.isNop()) // !ld.valid
        return false;
    if (a.region == AddrRegion::PortOut || a.region == AddrRegion::Null)
        return false;
    if (ld.res.addr == a.addr && ld.op != OpCode::Nop &&
        ld.op != OpCode::Hold)
        return true;
    return ld.op == OpCode::VFlush && ld.op1.addr == a.addr;
}

PerPeLoad
perPeLoad(const DecodedInst &fwd, const DecodedInst &inst)
{
    PerPeLoad out;
    // COMMIT of fwd, which the PE loaded one cycle before inst: SvMac
    // to VMov write res if it is not overwritten; VFlush always writes
    // res and recycles op1 if it is not overwritten.
    switch (fwd.op) {
      case OpCode::SvMac:
      case OpCode::VvMac:
      case OpCode::VvMacW:
      case OpCode::VAdd:
      case OpCode::VMov:
        if (nextOverwrites(inst, fwd.res))
            out.dead = kKillRes;
        break;
      case OpCode::VFlush:
        if (nextOverwrites(inst, fwd.op1))
            out.dead = kKillOp1;
        break;
      default:
        break;
    }

    if (inst.isNop()) // ld.valid = false: nothing loads
        return out;
    const bool fwd_valid = !fwd.isNop();
    int dmem_reads_this_cycle = 0;
    int spad_reads_this_cycle = 0;
    auto read_port = [&](Dir d) {
        out.portCacheValid |= static_cast<std::uint8_t>(
            1u << static_cast<int>(d));
        return portSrc(d);
    };
    auto panic_at = [&](LoadFault f, int at) {
        out.panicked = f;
        out.panicAt = at;
        return false;
    };
    // Pe::readOperand(); false where it panicked.
    auto read_operand = [&](int at, const Operand &a) {
        const bool local_read = a.region != AddrRegion::PortIn &&
                                a.region != AddrRegion::PortOut;
        if (fwd_valid && local_read) {
            if (fwd.op == OpCode::VFlush && fwd.op1.addr == a.addr) {
                out.src[at] = Src::Zero;
                return true;
            }
            if (fwd.res.addr == a.addr) {
                out.src[at] = Src::Forward;
                return true;
            }
        }
        switch (a.region) {
          case AddrRegion::Dmem:
            if (++dmem_reads_this_cycle > 1)
                return panic_at(LoadFault::TwoDmemReads, at);
            out.src[at] = Src::Dmem;
            return true;
          case AddrRegion::Spad:
            if (++spad_reads_this_cycle > 1)
                return panic_at(LoadFault::TwoSpadReads, at);
            out.src[at] = Src::Spad;
            return true;
          case AddrRegion::Reg:
            out.src[at] = Src::Reg;
            return true;
          case AddrRegion::PortIn:
            out.src[at] = read_port(static_cast<Dir>(a.offset));
            return true;
          case AddrRegion::Zero:
            out.src[at] = Src::Zero;
            return true;
          case AddrRegion::Null:
          case AddrRegion::PortOut:
          case AddrRegion::Invalid:
            break;
        }
        return panic_at(LoadFault::IllegalOperand, at);
    };

    // Pe::loadStage(): the operands in their order, then the routes.
    switch (inst.op) {
      case OpCode::Nop:
      case OpCode::Hold:
        break;
      case OpCode::SvMac:
      case OpCode::VvMac:
        if (!read_operand(kReadOp1, inst.op1) ||
            !read_operand(kReadOp2, inst.op2) ||
            !read_operand(kReadAcc, inst.res))
            return out;
        break;
      case OpCode::VvMacW:
        if (!read_operand(kReadOp1, inst.op1) ||
            !read_operand(kReadOp2, inst.op2))
            return out;
        out.src[kReadAcc] = read_port(Dir::West);
        break;
      case OpCode::VAdd:
        if (!read_operand(kReadOp1, inst.op1) ||
            !read_operand(kReadOp2, inst.op2))
            return out;
        break;
      case OpCode::VMov:
      case OpCode::VFlush:
        if (!read_operand(kReadOp1, inst.op1))
            return out;
        break;
      case OpCode::NumOpCodes:
        panic_at(LoadFault::Opcode, kReadOp1);
        return out;
    }
    if (inst.route & kRouteN2S)
        read_port(Dir::North);
    if (inst.route & kRouteW2E)
        read_port(Dir::West);
    return out;
}

/** @p cur resolved against @p prev, by value. */
DecodedInst
resolved(const DecodedInst &prev, DecodedInst cur)
{
    resolve(prev, cur);
    return cur;
}

/** An address in a random region (Null, Zero and Invalid included),
 *  from few slots so that forwarding and overwrite matches are common. */
Addr
randomAddr(Rng &rng)
{
    static constexpr Addr kInvalid[] = {0x0514, 0x0530, 0x05FE, 0x0600,
                                        0xFFFF};
    const int slot = static_cast<int>(rng.nextBounded(3));
    switch (rng.nextBounded(8)) {
      case 0:
        return as::dmem(slot);
      case 1:
        return as::spad(slot);
      case 2:
        return as::reg(slot);
      case 3:
        return as::portIn(static_cast<Dir>(rng.nextBounded(kNumDirs)));
      case 4:
        return as::portOut(static_cast<Dir>(rng.nextBounded(kNumDirs)));
      case 5:
        return as::kZeroAddr;
      case 6:
        return as::kNullAddr;
      default:
        return kInvalid[rng.nextBounded(std::size(kInvalid))];
    }
}

/** A random instruction over every opcode (NumOpCodes included) and
 *  every route bit; about one in eight is the NOP. */
Instruction
randomInst(Rng &rng)
{
    if (rng.nextBounded(8) == 0)
        return nopInst();
    Instruction i;
    i.op = static_cast<OpCode>(
        rng.nextBounded(static_cast<int>(OpCode::NumOpCodes) + 1));
    i.op1 = randomAddr(rng);
    i.op2 = randomAddr(rng);
    i.res = randomAddr(rng);
    i.route = static_cast<std::uint8_t>(rng.nextBounded(16));
    i.hold = rng.nextBool(0.5);
    return i;
}

TEST(Resolve, MatchesThePerPeRulesOnRandomPairs)
{
    Rng rng(21);
    std::map<OpCode, int> ops;
    std::map<AddrRegion, int> regions;
    std::map<int, int> routes;
    std::map<LoadFault, int> faults;
    std::map<Src, int> srcs;
    std::map<int, int> kills;
    for (int t = 0; t < 20000; ++t) {
        const DecodedInst prev = decode(randomInst(rng));
        DecodedInst cur = decode(randomInst(rng));
        // Resolved fields already set are recomputed, not kept.
        cur.pops = 0xFF;
        cur.kills = 0xFF;
        const DecodedInst r = resolved(prev, cur);
        const PerPeLoad ref = perPeLoad(prev, cur);
        SCOPED_TRACE(::testing::Message() << "pair " << t);

        EXPECT_EQ(r.op, cur.op);
        EXPECT_EQ(r.route, cur.route);
        EXPECT_EQ(r.hold, cur.hold);
        EXPECT_EQ(r.op1, cur.op1);
        EXPECT_EQ(r.op2, cur.op2);
        EXPECT_EQ(r.res, cur.res);
        EXPECT_EQ(r.fault, ref.panicked);
        EXPECT_EQ(r.faultAt, ref.panicAt);
        EXPECT_EQ(r.kills, ref.dead);
        for (int i = 0; i < kLoadReads; ++i)
            EXPECT_EQ(r.src[i], ref.src[i]) << "read " << i;
        // One pop per port the reads before any fault name.
        EXPECT_EQ(r.pops, ref.portCacheValid);
        if (cur.isNop()) {
            EXPECT_EQ(r, decode(Instruction{cur.op, cur.op1.addr,
                                            cur.op2.addr, cur.res.addr,
                                            cur.route, cur.hold}));
        }

        ++ops[cur.op];
        for (const Operand *a : {&cur.op1, &cur.op2, &cur.res})
            ++regions[a->region];
        for (int b = 0; b < 4; ++b)
            if (cur.route & (1 << b))
                ++routes[b];
        ++faults[r.fault];
        for (const Src s : r.src)
            ++srcs[s];
        ++kills[r.kills];
    }
    EXPECT_EQ(ops.size(), static_cast<std::size_t>(OpCode::NumOpCodes) + 1);
    EXPECT_EQ(regions.size(), 8u); // every AddrRegion
    EXPECT_EQ(routes.size(), 4u);
    EXPECT_EQ(faults.size(), 5u);
    EXPECT_EQ(srcs.size(), 9u);
    EXPECT_EQ(kills.size(), 3u); // none, res, op1
    for (const auto &[f, n] : faults)
        EXPECT_GE(n, 20) << "fault " << static_cast<int>(f);
    for (const auto &[s, n] : srcs)
        EXPECT_GE(n, 20) << "source " << static_cast<int>(s);
}

TEST(Resolve, NopFieldsStayZero)
{
    // A NOP's resolved fields are zero whatever precedes it, so a
    // drained pipeline still compares equal to DecodedInst{}.
    Rng rng(5);
    for (int t = 0; t < 200; ++t) {
        const DecodedInst prev = decode(randomInst(rng));
        EXPECT_EQ(resolved(prev, DecodedInst{}), DecodedInst{});
    }
}

} // namespace
} // namespace canon
