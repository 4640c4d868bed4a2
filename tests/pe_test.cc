/**
 * @file
 * PE pipeline tests: a single PE driven by a hand-held instruction
 * pipeline. Verifies 3-stage timing, exact forwarding for
 * back-to-back accumulation, VFlush's recycle-zeroing, routing
 * pass-through, port discipline panics, and memory/register
 * semantics.
 */

#include <string>
#include <string_view>

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
        : pe(PeGeometry{0, 0}, 64, 8), pipe(1),
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

/** Set register @p r to @p v through the datapath: a VMov from a
 *  scratchpad slot, run until it commits. Clobbers that slot. */
void
loadReg(PeHarness &h, int r, const Vec4 &v)
{
    h.pe.spad().poke(7, v);
    h.issue(inst(OpCode::VMov, as::spad(7), as::kNullAddr, as::reg(r)));
    h.run(4);
    ASSERT_EQ(h.pe.reg(r), v);
}

TEST(PePipeline, VMovThreeStageLatency)
{
    PeHarness h;
    h.pe.dmem().poke(3, Vec4{{7, 8, 9, 10}});
    h.issue(inst(OpCode::VMov, as::dmem(3), as::kNullAddr, as::reg(0)));
    // Tap at cycle 1 (issue latch), LOAD 1, EXEC 2, COMMIT 3.
    h.run(3);
    EXPECT_EQ(h.pe.reg(0), Vec4{});
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
    EXPECT_EQ(h.pe.spad().read(2), Vec4{});
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
    EXPECT_EQ(h.pe.spad().read(0), (Vec4{{4, 4, 4, 4}}));
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

/** Run @p cycles; the panic message, or "" if none was raised. */
std::string
panicOf(PeHarness &h, int cycles)
{
    try {
        h.run(cycles);
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(PePipeline, TwoSpadReadsPanics)
{
    PeHarness h;
    h.issue(inst(OpCode::VAdd, as::spad(0), as::spad(1), as::reg(0)));
    const std::string what = panicOf(h, 3);
    EXPECT_NE(what.find("pe0_0: two scratchpad reads in one instruction"),
              std::string::npos)
        << what;
}

TEST(PePipeline, TwoDmemReadsPanics)
{
    PeHarness h;
    h.issue(inst(OpCode::VAdd, as::dmem(0), as::dmem(1), as::reg(0)));
    const std::string what = panicOf(h, 3);
    EXPECT_NE(what.find("two data-memory reads"), std::string::npos)
        << what;
}

TEST(PePipeline, SecondSouthOutTransferPanics)
{
    // res = S_OUT plus the N->S route: two S_OUT pushes in one COMMIT.
    PeHarness h;
    h.north.push(Vec4{{1, 1, 1, 1}});
    h.north.commit();
    h.issue(inst(OpCode::VMov, as::kZeroAddr, as::kNullAddr,
                 as::portOut(Dir::South), kRouteN2S));
    const std::string what = panicOf(h, 4);
    EXPECT_NE(what.find("second S_OUT transfer"), std::string::npos)
        << what;
}

TEST(PePipeline, SecondEastOutTransferPanics)
{
    // res = E_OUT plus the W->E route: two E_OUT pushes in one COMMIT.
    PeHarness h;
    h.west.push(Vec4{{1, 1, 1, 1}});
    h.west.commit();
    h.issue(inst(OpCode::VMov, as::kZeroAddr, as::kNullAddr,
                 as::portOut(Dir::East), kRouteW2E));
    const std::string what = panicOf(h, 4);
    EXPECT_NE(what.find("second E_OUT transfer in one cycle"),
              std::string::npos)
        << what;
}

TEST(PePipeline, VFlushTwoDmemWritesPanics)
{
    // A flush's res write and its recycle write of op1 both need the
    // data memory's one write port.
    PeHarness h;
    h.pe.dmem().poke(0, Vec4{{1, 2, 3, 4}});
    h.issue(inst(OpCode::VFlush, as::dmem(0), as::kNullAddr, as::dmem(1)));
    const std::string what = panicOf(h, 4);
    EXPECT_NE(what.find("pe0_0: two data-memory writes in one instruction "
                        "window"),
              std::string::npos)
        << what;
}

TEST(PePipeline, VFlushTwoSpadWritesPanics)
{
    PeHarness h;
    h.pe.spad().poke(0, Vec4{{1, 2, 3, 4}});
    h.issue(inst(OpCode::VFlush, as::spad(0), as::kNullAddr, as::spad(1)));
    const std::string what = panicOf(h, 4);
    EXPECT_NE(what.find("pe0_0: two scratchpad writes in one instruction "
                        "window"),
              std::string::npos)
        << what;
}

TEST(PePipeline, WritingInPortOrZeroPanics)
{
    for (const Addr a : {as::portIn(Dir::North), as::kZeroAddr}) {
        PeHarness h;
        h.issue(inst(OpCode::VMov, as::kZeroAddr, as::kNullAddr, a));
        const std::string what = panicOf(h, 4);
        EXPECT_NE(
            what.find("pe0_0: illegal destination address " +
                      as::toString(a)),
            std::string::npos)
            << what;
    }
}

TEST(PePipeline, ReadingOutPortOrNullPanics)
{
    for (const Addr a : {as::portOut(Dir::East), as::kNullAddr}) {
        PeHarness h;
        h.issue(inst(OpCode::VMov, a, as::kNullAddr, as::reg(0)));
        const std::string what = panicOf(h, 3);
        EXPECT_NE(what.find("illegal operand address " + as::toString(a)),
                  std::string::npos)
            << what;
    }
}

TEST(PePipeline, ZeroAddrReadsZero)
{
    PeHarness h;
    loadReg(h, 2, Vec4{{5, 5, 5, 5}});
    h.issue(inst(OpCode::VAdd, as::kZeroAddr, as::reg(2), as::reg(3)));
    h.run(4);
    EXPECT_EQ(h.pe.reg(3), (Vec4{{5, 5, 5, 5}}));
}

TEST(PePipeline, NullDestinationDiscards)
{
    PeHarness h;
    loadReg(h, 0, Vec4{{1, 1, 1, 1}});
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

/** The counter @p leaf of @p ram's counter list (0 when unnamed). */
template <typename T>
std::uint64_t
counter(const VecRam<T> &ram, std::string_view leaf)
{
    std::uint64_t value = 0;
    ram.forEachCounter([&](std::string_view name, const Counter &ctr) {
        if (name == leaf)
            value += ctr.value();
    });
    return value;
}

TEST(VecRam, BoundsAndStats)
{
    VecRam<Elem> ram("dmem", 8);
    EXPECT_EQ(ram.slots(), 8);
    ram.write(3, Vec4{{1, 2, 3, 4}});
    EXPECT_EQ(ram.read(3), (Vec4{{1, 2, 3, 4}}));
    EXPECT_THROW(ram.read(8), PanicError);
    EXPECT_THROW(ram.write(-1, Vec4{}), PanicError);
    EXPECT_EQ(counter(ram, "dmemReads"), 1u);
    EXPECT_EQ(counter(ram, "dmemWrites"), 1u);
}

TEST(VecRam, SlotsValidatedBeforeAllocating)
{
    // A bad size is a PanicError naming the memory, not an allocation
    // failure.
    for (const int slots : {0, -1}) {
        try {
            VecRam<Elem> ram("dmem", slots);
            ADD_FAILURE() << slots << " slots accepted";
        } catch (const PanicError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "VecRam dmem: slots must be positive"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(VecRam<Word>("spad", -1), PanicError);
}

TEST(VecRam, DataMemoryHoldsInt8Lanes)
{
    VecRam<Elem> ram("dmem", 4);
    const Vec4 extremes{{-128, 127, 0, -1}};
    ram.write(0, extremes);
    ram.poke(1, extremes);
    EXPECT_EQ(ram.read(0), extremes);
    EXPECT_EQ(ram.read(1), extremes);

    // A lane outside INT8 panics, names the memory, and leaves the
    // slot and the counters as they were.
    for (const Word bad : {128, -129, 1 << 20}) {
        for (const int lane : {0, 3}) {
            Vec4 v = extremes;
            v[lane] = bad;
            for (const bool poke : {false, true}) {
                try {
                    if (poke)
                        ram.poke(0, v);
                    else
                        ram.write(0, v);
                    ADD_FAILURE() << bad << " stored in lane " << lane;
                } catch (const PanicError &e) {
                    EXPECT_NE(std::string(e.what()).find("VecRam dmem"),
                              std::string::npos)
                        << e.what();
                }
            }
        }
    }
    EXPECT_EQ(ram.read(0), extremes);
    EXPECT_EQ(counter(ram, "dmemReads"), 3u);
    EXPECT_EQ(counter(ram, "dmemWrites"), 1u);
}

TEST(VecRam, ScratchpadHoldsInt32Lanes)
{
    VecRam<Word> ram("spad", 2);
    const Vec4 wide{{1 << 20, -(1 << 20), 128, -129}};
    ram.write(1, wide);
    EXPECT_EQ(ram.read(1), wide);
    ram.poke(0, Vec4::splat(1 << 20));
    EXPECT_EQ(ram.read(0), Vec4::splat(1 << 20));
    EXPECT_EQ(counter(ram, "spadReads"), 2u);
    EXPECT_EQ(counter(ram, "spadWrites"), 1u);
}

} // namespace
} // namespace canon
