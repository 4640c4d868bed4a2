/**
 * @file
 * ISA tests: unified address-space classification and instruction
 * encode/decode round-trips (property-swept over randomized
 * instructions).
 */

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

TEST(Instruction, NopDefaults)
{
    const auto n = nopInst();
    EXPECT_TRUE(n.isNop());
    EXPECT_EQ(n.op, OpCode::Nop);
    EXPECT_EQ(Instruction::decode(n.encode()), n);
}

TEST(Instruction, EncodeDecodeExplicit)
{
    Instruction i;
    i.op = OpCode::SvMac;
    i.op1 = as::portIn(Dir::West);
    i.op2 = as::dmem(42);
    i.res = as::spad(7);
    i.route = kRouteW2E | kRouteN2S;
    i.hold = true;
    EXPECT_EQ(Instruction::decode(i.encode()), i);
}

TEST(Instruction, DecodeRejectsBadOpcode)
{
    // Craft a word with an out-of-range opcode field.
    const std::uint64_t bad = 0x3F; // op field all-ones
    EXPECT_THROW(Instruction::decode(bad), PanicError);
}

TEST(Instruction, Disassembly)
{
    Instruction i;
    i.op = OpCode::SvMac;
    i.op1 = as::portIn(Dir::West);
    i.op2 = as::dmem(3);
    i.res = as::spad(1);
    i.route = kRouteN2S;
    const auto s = i.toString();
    EXPECT_NE(s.find("SVMAC"), std::string::npos);
    EXPECT_NE(s.find("W_IN"), std::string::npos);
    EXPECT_NE(s.find("DMEM[3]"), std::string::npos);
    EXPECT_NE(s.find("SPAD[1]"), std::string::npos);
    EXPECT_NE(s.find("N>S"), std::string::npos);
}

/** Property sweep: random legal instructions round-trip exactly. */
class InstructionRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(InstructionRoundTrip, EncodeDecodeIdentity)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int t = 0; t < 500; ++t) {
        Instruction i;
        i.op = static_cast<OpCode>(rng.nextBounded(
            static_cast<std::uint64_t>(OpCode::NumOpCodes)));
        i.op1 = static_cast<Addr>(rng.nextBounded(1 << 16));
        i.op2 = static_cast<Addr>(rng.nextBounded(1 << 16));
        i.res = static_cast<Addr>(rng.nextBounded(1 << 16));
        i.route = static_cast<std::uint8_t>(rng.nextBounded(16));
        i.hold = rng.nextBool(0.5);
        EXPECT_EQ(Instruction::decode(i.encode()), i);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstructionRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
} // namespace canon
