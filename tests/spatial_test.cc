/**
 * @file
 * Spatial execution mode (Appendix D / Figure 22): configure the
 * array through the instruction NoC, freeze, and run a static
 * dataflow with per-PE instructions -- the place-and-route
 * compatibility mode of classic CGRAs.
 */

#include <gtest/gtest.h>

#include "core/fabric.hh"

namespace canon
{
namespace
{

namespace as = addrspace;

Instruction
inst(OpCode op, Addr a, Addr b, Addr r)
{
    Instruction i;
    i.op = op;
    i.op1 = a;
    i.op2 = b;
    i.res = r;
    return i;
}

TEST(Spatial, ConfigurationCostThreeCyclesPerColumn)
{
    CanonConfig cfg;
    cfg.rows = 1;
    cfg.cols = 4;
    CanonFabric fabric(cfg);
    std::vector<std::vector<Instruction>> prog(
        1, std::vector<Instruction>(4, nopInst()));
    const auto cycles = fabric.configureSpatial(prog);
    // ~3 cycles per column (Figure 22: 12 cycles for 4 columns).
    EXPECT_GE(cycles, 9u);
    EXPECT_LE(cycles, 13u);
}

TEST(Spatial, BucketBrigadeMovesDataWestToEast)
{
    // Every PE: VMov W_IN -> E_OUT. A vector pushed west must emerge
    // east, once per push, in order.
    CanonConfig cfg;
    cfg.rows = 1;
    cfg.cols = 4;
    CanonFabric fabric(cfg);
    std::vector<std::vector<Instruction>> prog(1);
    for (int c = 0; c < 4; ++c)
        prog[0].push_back(inst(OpCode::VMov, as::portIn(Dir::West),
                               as::kNullAddr,
                               as::portOut(Dir::East)));
    fabric.configureSpatial(prog);

    for (int v = 1; v <= 3; ++v)
        fabric.pushWest(0, Vec4::splat(v));

    std::vector<Vec4> out;
    for (int t = 0; t < 40 && out.size() < 3; ++t) {
        fabric.step();
        if (auto v = fabric.popEast(0))
            out.push_back(*v);
    }
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], Vec4::splat(1));
    EXPECT_EQ(out[1], Vec4::splat(2));
    EXPECT_EQ(out[2], Vec4::splat(3));
}

TEST(Spatial, PipelinedMacChainComputesDotProducts)
{
    // Column c multiplies the streamed scalar by its local dmem
    // vector and adds the psum from the west: a spatial 4-tap
    // convolution-style pipeline.
    CanonConfig cfg;
    cfg.rows = 1;
    cfg.cols = 4;
    CanonFabric fabric(cfg);
    std::vector<std::vector<Instruction>> prog(1);
    for (int c = 0; c < 4; ++c)
        prog[0].push_back(inst(OpCode::VvMacW, as::spad(0),
                               as::dmem(0), as::portOut(Dir::East)));
    fabric.configureSpatial(prog);
    for (int c = 0; c < 4; ++c) {
        fabric.pe(0, c).spad().poke(0, Vec4::splat(c + 1));
        fabric.pe(0, c).dmem().poke(0, Vec4::splat(2));
    }

    // Seed psums from the west edge; each traversal accumulates
    // sum_c (c+1)*2 = 20 on top of the seed.
    fabric.pushWest(0, Vec4::splat(100));
    fabric.pushWest(0, Vec4::splat(200));

    std::vector<Vec4> out;
    for (int t = 0; t < 60 && out.size() < 2; ++t) {
        fabric.step();
        if (auto v = fabric.popEast(0))
            out.push_back(*v);
    }
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], Vec4::splat(120));
    EXPECT_EQ(out[1], Vec4::splat(220));
}

TEST(Spatial, MultiRowIndependentPipelines)
{
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    CanonFabric fabric(cfg);
    std::vector<std::vector<Instruction>> prog(2);
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 2; ++c)
            prog[r].push_back(inst(OpCode::VMov,
                                   as::portIn(Dir::West),
                                   as::kNullAddr,
                                   as::portOut(Dir::East)));
    fabric.configureSpatial(prog);
    fabric.pushWest(0, Vec4::splat(7));
    fabric.pushWest(1, Vec4::splat(8));

    std::optional<Vec4> a, b;
    for (int t = 0; t < 30 && !(a && b); ++t) {
        fabric.step();
        if (!a)
            a = fabric.popEast(0);
        if (!b)
            b = fabric.popEast(1);
    }
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a, Vec4::splat(7));
    EXPECT_EQ(*b, Vec4::splat(8));
}

TEST(Spatial, EndToEndPipeline)
{
    // A Figure 22 style pipeline on row 0 (stage c adds its dmem
    // constant to the stream) over an idle row 1.
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 3;
    CanonFabric fabric(cfg);

    std::vector<std::vector<Instruction>> grid(
        2, std::vector<Instruction>(3, nopInst()));
    for (int c = 0; c < 3; ++c)
        grid[0][c] = inst(OpCode::VAdd, as::portIn(Dir::West),
                          as::dmem(0), as::portOut(Dir::East));

    fabric.configureSpatial(grid);
    for (int c = 0; c < 3; ++c)
        fabric.pe(0, c).dmem().poke(0, Vec4::splat(10));

    fabric.pushWest(0, Vec4::splat(5));
    std::optional<Vec4> out;
    for (int t = 0; t < 40 && !out; ++t) {
        fabric.step();
        out = fabric.popEast(0);
    }
    ASSERT_TRUE(out);
    EXPECT_EQ(*out, Vec4::splat(35)); // 5 + 3*10
}

} // namespace
} // namespace canon
