/**
 * @file
 * Core-module tests: edge collectors and feeders in isolation, fabric
 * construction/config validation, kernel-mapping shape checks (the
 * fatal() error paths a user hits first), and write-coalescing
 * behaviour visible through the activity counters.
 */

#include <set>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "core/fabric.hh"
#include "kernels/dense_cadence.hh"
#include "kernels/sddmm.hh"
#include "kernels/spmm.hh"
#include "sparse/generate.hh"

namespace canon
{
namespace
{

TEST(Config, DescribeAndDerived)
{
    const auto cfg = CanonConfig::paper();
    EXPECT_EQ(cfg.numPes(), 64);
    EXPECT_EQ(cfg.numMacs(), 256);
    EXPECT_EQ(cfg.dmemBytesPerPe(), 4096u);
    EXPECT_EQ(cfg.spadBytesPerPe(), 256u);
    EXPECT_NE(cfg.describe().find("8x8"), std::string::npos);
}

TEST(Fabric, RejectsBadConfig)
{
    CanonConfig cfg;
    cfg.rows = 0;
    EXPECT_THROW(CanonFabric{cfg}, FatalError);

    CanonConfig cfg2;
    cfg2.spadEntries = 1000;
    EXPECT_THROW(CanonFabric{cfg2}, FatalError);
}

TEST(Fabric, SingleUsePerKernel)
{
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    Rng rng(1);
    const auto a = randomSparse(4, 4, 0.5, rng);
    const auto b = randomDense(4, 8, rng);
    const auto map = mapSpmm(a, b, cfg);

    CanonFabric fabric(cfg);
    fabric.load(map);
    EXPECT_THROW(fabric.load(map), FatalError);
}

TEST(Fabric, RunWithoutLoadFails)
{
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    CanonFabric fabric(cfg);
    EXPECT_THROW(fabric.run(), FatalError);
}

TEST(Fabric, EveryCounterHasItsOwnPath)
{
    // Nothing checks counter names when a fabric is built, so this
    // does: every group.leaf path is distinct, and each PE names 10
    // counters (its memories' and router's included) and each
    // orchestrator 13 (its tag buffer's included).
    for (const auto &[rows, cols] :
         {std::pair{8, 8}, std::pair{4, 16}, std::pair{64, 4}}) {
        CanonConfig cfg;
        cfg.rows = rows;
        cfg.cols = cols;
        const CanonFabric fabric(cfg);
        std::set<std::string> paths;
        std::size_t visits = 0;
        fabric.forEachCounter([&](std::string_view group,
                                  std::string_view leaf, const Counter &) {
            ++visits;
            paths.insert(std::string(group) + "." + std::string(leaf));
        });
        const auto want =
            static_cast<std::size_t>(rows * cols * 10 + rows * 13);
        EXPECT_EQ(visits, want) << rows << "x" << cols;
        EXPECT_EQ(paths.size(), want) << rows << "x" << cols;
        EXPECT_EQ(fabric.flatStats().size(), want) << rows << "x" << cols;
    }
}

TEST(MappingErrors, SpmmShapeChecks)
{
    const auto cfg = CanonConfig::paper(); // needs N == 32, K % 8 == 0
    Rng rng(2);
    const auto b_bad_n = randomDense(64, 48, rng);
    const auto b_bad_k = randomDense(63, 32, rng);
    const auto a64 = randomSparse(8, 64, 0.5, rng);
    const auto a63 = randomSparse(8, 63, 0.5, rng);

    EXPECT_THROW(mapSpmm(a64, b_bad_n, cfg), FatalError);
    EXPECT_THROW(mapSpmm(a63, b_bad_k, cfg), FatalError);
    // Mismatched inner dimension.
    const auto b_ok = randomDense(32, 32, rng);
    EXPECT_THROW(mapSpmm(a64, b_ok, cfg), FatalError);
}

TEST(MappingErrors, GemmRejectsZeros)
{
    const auto cfg = CanonConfig::paper();
    Rng rng(3);
    auto a = randomDense(8, 64, rng);
    a.at(0, 0) = 0;
    const auto b = randomDense(64, 32, rng);
    EXPECT_THROW(mapGemm(a, b, cfg), FatalError);
}

TEST(MappingErrors, SddmmDepthMustBePowerOfTwo)
{
    CanonConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.spadEntries = 6; // not a power of two
    Rng rng(4);
    const auto a = randomDense(8, 16, rng);
    const auto b = randomDense(16, 8, rng);
    const auto mask = randomMask(8, 8, 0.5, rng);
    EXPECT_THROW(mapSddmm(mask, a, b, cfg), FatalError);
}

TEST(Collectors, SouthAccumulatesByRid)
{
    WordMatrix out(4, 8);
    MsgChannel msgs;
    DataChannel c0(8, "c0"), c1(8, "c1");
    SouthCollector col(&msgs, {&c0, &c1}, &out);

    // Two psums for the same output row must accumulate.
    auto deliver = [&](std::uint16_t rid, Word base) {
        msgs.push({kMsgPsum, rid});
        for (int i = 0; i < 8; ++i)
            msgs.tickCommit();
        c0.push(Vec4::splat(base));
        c1.push(Vec4::splat(base + 1));
        c0.commit();
        c1.commit();
        for (int i = 0; i < 2; ++i) {
            col.tickCompute();
            msgs.tickCommit();
            c0.commit();
            c1.commit();
        }
    };
    deliver(2, 10);
    deliver(2, 100);
    EXPECT_TRUE(col.pendingEmpty());
    EXPECT_EQ(out.at(2, 0), 110);
    EXPECT_EQ(out.at(2, 4), 112);
    EXPECT_EQ(out.at(1, 0), 0);
}

TEST(Collectors, SouthPanicsOnUnannouncedVector)
{
    WordMatrix out(2, 4);
    MsgChannel msgs;
    DataChannel c0(8, "c0");
    SouthCollector col(&msgs, {&c0}, &out);
    c0.push(Vec4::splat(1));
    c0.commit();
    EXPECT_THROW(col.tickCompute(), PanicError);
}

TEST(Collectors, EastReducesLanes)
{
    WordMatrix out(4, 8);
    EastCollector col(&out, 2);
    DataChannel ch(8, "e");
    std::deque<OutRec> recs;
    col.addRow(1, &ch, &recs); // row 1 covers output cols [2, 4)

    recs.push_back({3, 1}); // m=3, local n=1 -> col 3
    ch.push(Vec4{{1, 2, 3, 4}});
    ch.commit();
    col.tickCompute();
    ch.commit();
    EXPECT_EQ(out.at(3, 3), 10);
    EXPECT_TRUE(col.pendingEmpty());
}

TEST(Collectors, NorthFeederSynchronizedSteps)
{
    DataChannel c0(8, "n0"), c1(8, "n1");
    MsgChannel announce;
    NorthFeeder feeder({&c0, &c1}, &announce);
    feeder.setFeed({{Vec4::splat(1), Vec4::splat(2)},
                    {Vec4::splat(3), Vec4::splat(4)}});

    feeder.tickCompute();
    c0.commit();
    c1.commit();
    announce.tickCommit();
    EXPECT_EQ(c0.front(), Vec4::splat(1));
    EXPECT_EQ(c1.front(), Vec4::splat(2));

    EXPECT_FALSE(feeder.drained());
    feeder.tickCompute();
    c0.commit();
    c1.commit();
    EXPECT_EQ(c0.size(), 2u);
    EXPECT_TRUE(feeder.drained()); // both steps delivered
}

TEST(WriteCoalescing, DenseRunsCommitOncePerRow)
{
    // A dense GEMM accumulates long register runs: the number of
    // committed register writes must be far below the MAC count.
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    Rng rng(5);
    const auto a = randomDense(16, 32, rng);
    const auto b = randomDense(32, 8, rng);
    CanonFabric fabric(cfg);
    fabric.load(mapGemm(a, b, cfg));
    fabric.run();
    const auto macs = fabric.sumCounter("macOps") / kSimdWidth;
    const auto reg_writes = fabric.sumCounter("regWrites");
    EXPECT_LT(reg_writes, macs / 4)
        << "back-to-back accumulation should coalesce";
}

TEST(Profile, FabricExportsActivity)
{
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    Rng rng(6);
    const auto a = randomSparse(16, 16, 0.5, rng);
    const auto b = randomDense(16, 8, rng);
    CanonFabric fabric(cfg);
    fabric.load(mapSpmm(a, b, cfg));
    fabric.run();
    const auto p = fabric.profile("t");
    EXPECT_EQ(p.cycles, fabric.cycles());
    EXPECT_GT(p.get(Activity::LaneMacs), 0u);
    EXPECT_GT(p.get(Activity::LutLookups), 0u);
    EXPECT_GT(p.get(Activity::InstHops), 0u);
    EXPECT_EQ(p.peCount, 4u);
}

TEST(Determinism, RegistrationShuffleLeavesResultsIdentical)
{
    // The typed tick schedule may advance partitions in any order; the
    // two-phase protocol makes that unobservable. Construct the same
    // fabric under several registration-order shuffles and require the
    // result matrix, cycle count, and every activity counter to match.
    CanonConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;

    auto execute = [&](std::uint64_t shuffle_seed) {
        Rng rng(7);
        const auto a = randomSparse(16, 16, 0.5, rng);
        const auto b = randomDense(16, 16, rng);
        CanonFabric fabric(cfg, shuffle_seed);
        fabric.load(mapSpmm(a, b, cfg));
        fabric.run();
        return std::pair{fabric.result(), fabric.profile("shuffle")};
    };

    const auto [ref_out, ref_prof] = execute(0);
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto [out, prof] = execute(seed);
        EXPECT_EQ(out, ref_out) << "seed " << seed;
        EXPECT_EQ(prof.cycles, ref_prof.cycles) << "seed " << seed;
        EXPECT_EQ(prof.activity, ref_prof.activity) << "seed " << seed;
    }
}

TEST(Determinism, ShuffleAppliesToLoadTimeComponents)
{
    // SDDMM exercises the east collector + north feeder + message sink
    // path, whose registrations happen at load() time.
    CanonConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.spadEntries = 16;

    auto execute = [&](std::uint64_t shuffle_seed) {
        Rng rng(8);
        const auto a = randomDense(8, 16, rng);
        const auto b = randomDense(16, 8, rng);
        const auto mask = randomMask(8, 8, 0.5, rng);
        CanonFabric fabric(cfg, shuffle_seed);
        fabric.load(mapSddmm(mask, a, b, cfg));
        fabric.run();
        return std::pair{fabric.result(), fabric.cycles()};
    };

    const auto [ref_out, ref_cycles] = execute(0);
    for (std::uint64_t seed : {1ull, 2ull}) {
        const auto [out, cycles] = execute(seed);
        EXPECT_EQ(out, ref_out) << "seed " << seed;
        EXPECT_EQ(cycles, ref_cycles) << "seed " << seed;
    }
}

TEST(Profile, ScaleAndAccumulate)
{
    ExecutionProfile a;
    a.cycles = 100;
    a.add(Activity::LaneMacs, 1000);
    ExecutionProfile b = a;
    b.accumulate(a);
    EXPECT_EQ(b.cycles, 200u);
    EXPECT_EQ(b.get(Activity::LaneMacs), 2000u);
    b.scale(0.5);
    EXPECT_EQ(b.cycles, 100u);
    EXPECT_EQ(b.get(Activity::LaneMacs), 1000u);
    EXPECT_DOUBLE_EQ(a.utilization(10), 1.0);
}

} // namespace
} // namespace canon
