/**
 * @file
 * ISA tests: unified address-space classification, decode at issue,
 * and the NOP instruction.
 */

#include <map>

#include <gtest/gtest.h>

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

} // namespace
} // namespace canon
