/**
 * @file
 * PE pipeline tests: a single PE driven by a hand-held instruction
 * pipeline. Verifies 3-stage timing, exact forwarding for
 * back-to-back accumulation, VFlush's recycle-zeroing, routing
 * pass-through, port discipline panics, and memory/register
 * semantics.
 */

#include <gtest/gtest.h>

#include "pe/pe.hh"

namespace canon
{
namespace
{

namespace as = addrspace;

/** Single-PE harness with channels on all four sides. */
class PeHarness
{
  public:
    PeHarness()
        : stats("t"), pe(PeGeometry{0, 0}, 64, 8, stats), pipe(1),
          north(8, "n"), south(8, "s"), east(8, "e"), west(8, "w")
    {
        pe.bindPipeline(&pipe);
        pe.router().bindIn(Dir::North, &north);
        pe.router().bindOut(Dir::South, &south);
        pe.router().bindIn(Dir::West, &west);
        pe.router().bindOut(Dir::East, &east);
    }

    void
    issue(const Instruction &i)
    {
        pipe.issue(i);
    }

    /** One cycle: the PE computes, then everything commits. */
    void
    step()
    {
        pe.tickCompute();
        pipe.tickCommit();
        pe.tickCommit();
        for (auto *ch : {&north, &south, &east, &west})
            ch->commit();
    }

    void
    run(int cycles)
    {
        for (int i = 0; i < cycles; ++i)
            step();
    }

    StatGroup stats;
    Pe pe;
    InstPipeline pipe;
    DataChannel north, south, east, west;
};

Instruction
inst(OpCode op, Addr a, Addr b, Addr r, std::uint8_t route = 0)
{
    Instruction i;
    i.op = op;
    i.op1 = a;
    i.op2 = b;
    i.res = r;
    i.route = route;
    return i;
}

TEST(PePipeline, VMovThreeStageLatency)
{
    PeHarness h;
    h.pe.dmem().poke(3, Vec4{{7, 8, 9, 10}});
    h.issue(inst(OpCode::VMov, as::dmem(3), as::kNullAddr, as::reg(0)));
    // Tap at cycle 1 (issue latch), LOAD 1, EXEC 2, COMMIT 3.
    h.run(3);
    EXPECT_TRUE(h.pe.reg(0).isZero());
    h.run(1);
    EXPECT_EQ(h.pe.reg(0), (Vec4{{7, 8, 9, 10}}));
}

TEST(PePipeline, BackToBackAccumulationForwards)
{
    // Three consecutive SvMacs into the same register must see each
    // other's results exactly (the dense inner loop).
    PeHarness h;
    h.pe.dmem().poke(0, Vec4{{1, 2, 3, 4}});
    h.west.push(Vec4{{2, 0, 0, 0}});
    h.west.push(Vec4{{3, 0, 0, 0}});
    h.west.push(Vec4{{5, 0, 0, 0}});
    h.west.commit();

    const auto mac = inst(OpCode::SvMac, as::portIn(Dir::West),
                          as::dmem(0), as::reg(1));
    h.issue(mac);
    h.step();
    h.issue(mac);
    h.step();
    h.issue(mac);
    h.run(5);
    // (2+3+5) * [1,2,3,4]
    EXPECT_EQ(h.pe.reg(1), (Vec4{{10, 20, 30, 40}}));
}

TEST(PePipeline, VFlushZeroesSourceAndSendsSouth)
{
    PeHarness h;
    h.pe.spad().poke(2, Vec4{{5, 6, 7, 8}});
    h.issue(inst(OpCode::VFlush, as::spad(2), as::kNullAddr,
                 as::portOut(Dir::South)));
    h.run(5);
    EXPECT_TRUE(h.pe.spad().peek(2).isZero());
    ASSERT_FALSE(h.south.empty());
    EXPECT_EQ(h.south.front(), (Vec4{{5, 6, 7, 8}}));
}

TEST(PePipeline, VFlushThenImmediateMacSeesZero)
{
    // The recycled-slot hazard: a MAC issued right after a flush of
    // the same slot must accumulate from zero, not the stale psum.
    PeHarness h;
    h.pe.spad().poke(0, Vec4{{100, 100, 100, 100}});
    h.pe.dmem().poke(0, Vec4{{1, 1, 1, 1}});
    h.west.push(Vec4{{4, 0, 0, 0}});
    h.west.commit();

    h.issue(inst(OpCode::VFlush, as::spad(0), as::kNullAddr,
                 as::portOut(Dir::South)));
    h.step();
    h.issue(inst(OpCode::SvMac, as::portIn(Dir::West), as::dmem(0),
                 as::spad(0)));
    h.run(5);
    EXPECT_EQ(h.pe.spad().peek(0), (Vec4{{4, 4, 4, 4}}));
}

TEST(PePipeline, RoutePassThroughNorthToSouth)
{
    PeHarness h;
    h.north.push(Vec4{{9, 9, 9, 9}});
    h.north.commit();
    h.issue(inst(OpCode::Nop, as::kNullAddr, as::kNullAddr,
                 as::kNullAddr, kRouteN2S));
    h.run(5);
    ASSERT_FALSE(h.south.empty());
    EXPECT_EQ(h.south.front(), (Vec4{{9, 9, 9, 9}}));
    EXPECT_TRUE(h.north.empty());
}

TEST(PePipeline, SharedPortPopFeedsOperandAndRoute)
{
    // SvMac consuming W_IN while also routing W->E: one physical pop.
    PeHarness h;
    h.pe.dmem().poke(0, Vec4{{1, 1, 1, 1}});
    h.west.push(Vec4{{6, 0, 0, 0}});
    h.west.commit();
    h.issue(inst(OpCode::SvMac, as::portIn(Dir::West), as::dmem(0),
                 as::reg(0), kRouteW2E));
    h.run(5);
    EXPECT_EQ(h.pe.reg(0), (Vec4{{6, 6, 6, 6}}));
    ASSERT_FALSE(h.east.empty());
    EXPECT_EQ(h.east.front()[0], 6);
    EXPECT_TRUE(h.west.empty());
}

TEST(PePipeline, VvMacWChainsWestPsum)
{
    PeHarness h;
    h.pe.spad().poke(0, Vec4{{1, 2, 3, 4}});
    h.pe.dmem().poke(0, Vec4{{2, 2, 2, 2}});
    h.west.push(Vec4{{10, 20, 30, 40}});
    h.west.commit();
    h.issue(inst(OpCode::VvMacW, as::spad(0), as::dmem(0),
                 as::portOut(Dir::East)));
    h.run(5);
    ASSERT_FALSE(h.east.empty());
    EXPECT_EQ(h.east.front(), (Vec4{{12, 24, 36, 48}}));
}

TEST(PePipeline, ReadingEmptyPortPanics)
{
    PeHarness h;
    h.issue(inst(OpCode::VMov, as::portIn(Dir::North), as::kNullAddr,
                 as::reg(0)));
    EXPECT_THROW(h.run(3), PanicError);
}

TEST(PePipeline, TwoSpadReadsPanics)
{
    PeHarness h;
    h.issue(inst(OpCode::VAdd, as::spad(0), as::spad(1), as::reg(0)));
    EXPECT_THROW(h.run(3), PanicError);
}

TEST(PePipeline, ZeroAddrReadsZero)
{
    PeHarness h;
    h.pe.pokeReg(2, Vec4{{5, 5, 5, 5}});
    h.issue(inst(OpCode::VAdd, as::kZeroAddr, as::reg(2), as::reg(3)));
    h.run(4);
    EXPECT_EQ(h.pe.reg(3), (Vec4{{5, 5, 5, 5}}));
}

TEST(PePipeline, NullDestinationDiscards)
{
    PeHarness h;
    h.pe.pokeReg(0, Vec4{{1, 1, 1, 1}});
    h.issue(
        inst(OpCode::VMov, as::reg(0), as::kNullAddr, as::kNullAddr));
    EXPECT_NO_THROW(h.run(4));
}

TEST(PePipeline, IdleWhenDrained)
{
    PeHarness h;
    EXPECT_TRUE(h.pe.idle());
    h.issue(inst(OpCode::VMov, as::kZeroAddr, as::kNullAddr,
                 as::reg(0)));
    h.run(2); // issue latch + LOAD
    EXPECT_FALSE(h.pe.idle());
    h.run(4);
    EXPECT_TRUE(h.pe.idle());
}

TEST(VecRam, BoundsAndStats)
{
    StatGroup stats("t");
    VecRam ram("dmem", 8, 1, stats);
    EXPECT_EQ(ram.sizeBytes(), 32u);
    ram.write(3, Vec4{{1, 2, 3, 4}});
    EXPECT_EQ(ram.read(3), (Vec4{{1, 2, 3, 4}}));
    EXPECT_THROW(ram.read(8), PanicError);
    EXPECT_THROW(ram.write(-1, Vec4{}), PanicError);
    EXPECT_EQ(stats.sumCounter("dmemReads"), 1u);
    EXPECT_EQ(stats.sumCounter("dmemWrites"), 1u);
}

} // namespace
} // namespace canon
