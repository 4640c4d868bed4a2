/**
 * @file
 * Baseline-architecture tests: the cycle-level systolic simulator
 * against the gold reference and against the closed-form model (exact
 * timing equality), ZeD scheduling properties, DFG utilities, and
 * mapper correctness (dependence + resource constraints honored).
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "baselines/cgra.hh"
#include "common/bitfield.hh"
#include "baselines/systolic.hh"
#include "baselines/zed.hh"
#include "sparse/generate.hh"
#include "sparse/reference.hh"

namespace canon
{
namespace
{

TEST(Systolic, SimComputesExactGemm)
{
    Rng rng(1);
    SystolicConfig cfg{4, 4, SparsitySupport::Dense};
    for (auto [m, k, n] :
         {std::tuple{4, 4, 4}, {7, 9, 5}, {12, 8, 16}, {3, 17, 2}}) {
        const auto a = randomDense(m, k, rng);
        const auto b = randomDense(k, n, rng);
        SystolicSim sim(cfg);
        sim.run(a, b);
        EXPECT_EQ(sim.result(), reference::gemm(a, b))
            << m << "x" << k << "x" << n;
    }
}

TEST(Systolic, ModelCyclesMatchSimExactly)
{
    Rng rng(2);
    SystolicConfig cfg{4, 4, SparsitySupport::Dense};
    SystolicModel model(cfg);
    for (auto [m, k, n] :
         {std::tuple{8, 8, 8}, {5, 12, 9}, {16, 4, 4}, {1, 1, 1}}) {
        const auto a = randomDense(m, k, rng);
        const auto b = randomDense(k, n, rng);
        SystolicSim sim(cfg);
        sim.run(a, b);
        EXPECT_EQ(sim.cycles(), model.gemmCycles(m, k, n))
            << m << "x" << k << "x" << n;
    }
}

TEST(Systolic, SparseRunsAtDenseCost)
{
    SystolicModel model(SystolicConfig{});
    const auto dense = model.gemm(128, 128, 128);
    const auto sparse = model.spmm(128, 128, 128, 0.9);
    EXPECT_EQ(dense.cycles, sparse.cycles);
}

TEST(Systolic, TwoFourHalvesEffectiveK)
{
    SystolicModel m24(
        SystolicConfig{16, 16, SparsitySupport::TwoFour});
    const auto dense = m24.gemm(256, 256, 256);
    const auto s24 = m24.gemm(256, 256, 256, {2, 4});
    EXPECT_LT(s24.cycles, dense.cycles * 0.6);
    EXPECT_GT(s24.cycles, dense.cycles * 0.4);

    // 2:8 compresses only to the 2:4 format: same cycles as 2:4.
    const auto s28 = m24.gemm(256, 256, 256, {2, 8});
    EXPECT_EQ(s28.cycles, s24.cycles);
    // But its useful work is half, which perf-per-op accounting sees.
    EXPECT_LT(s28.get(Activity::LaneMacs), s24.get(Activity::LaneMacs));
}

TEST(Systolic, DenseVariantIgnoresStructure)
{
    SystolicModel dense(SystolicConfig{});
    EXPECT_EQ(dense.gemm(64, 64, 64, {2, 4}).cycles,
              dense.gemm(64, 64, 64).cycles);
}

TEST(Systolic, WindowChunkingCoversBandTwice)
{
    SystolicModel model(SystolicConfig{});
    const auto p = model.sddmmWindow(1024, 64, 128);
    // Chunked scores = seq * 2w = 2x the band.
    EXPECT_EQ(p.get(Activity::LaneMacs),
              2ull * 1024 * 128 * 64);
}

TEST(Zed, MakespanNeverBeatsIdealBound)
{
    ZedModel zed;
    Rng rng(3);
    for (int t = 0; t < 20; ++t) {
        std::vector<std::uint64_t> rows;
        std::uint64_t total = 0;
        const auto n = 1 + rng.nextBounded(200);
        for (std::uint64_t i = 0; i < n; ++i) {
            rows.push_back(1 + rng.nextBounded(50));
            total += rows.back();
        }
        const auto span = zed.makespan(rows);
        const auto ideal = divCeil(total, 16);
        EXPECT_GE(span, ideal);
        const auto longest =
            *std::max_element(rows.begin(), rows.end());
        EXPECT_GE(span, longest);
        // Graham bound: 2x optimal for list scheduling.
        EXPECT_LE(span, 2 * std::max<std::uint64_t>(ideal, longest));
    }
}

TEST(Zed, StealingNoWorseThanStatic)
{
    ZedConfig steal_cfg;
    ZedConfig static_cfg;
    static_cfg.workStealing = false;
    ZedModel steal(steal_cfg), fixed(static_cfg);

    Rng rng(4);
    std::vector<std::int64_t> rows;
    for (int i = 0; i < 333; ++i)
        rows.push_back(1 + static_cast<std::int64_t>(
                               rng.nextBounded(40)));
    const auto a = steal.spmmRows(rows, 64);
    const auto b = fixed.spmmRows(rows, 64);
    EXPECT_LE(a.cycles, b.cycles);
}

TEST(Zed, UniformRowsNearIdeal)
{
    ZedModel zed;
    std::vector<std::int64_t> rows(160, 64); // 10 rows per cluster
    const auto p = zed.spmmRows(rows, 64);
    const std::uint64_t work_cycles = 10ull * (4 + 64 * 64 / 16);
    EXPECT_EQ(p.cycles, work_cycles);
}

TEST(Zed, EmptyRowsSkipped)
{
    ZedModel zed;
    std::vector<std::int64_t> rows(100, 0);
    rows[50] = 8;
    const auto p = zed.spmmRows(rows, 16);
    EXPECT_EQ(p.get(Activity::DecodeOps), 8u);
    EXPECT_LT(p.cycles, 30u);
}

TEST(Zed, SkewPenalizesSingleLongRow)
{
    // One giant row cannot be split across clusters at row
    // granularity: Canon's K-sliced dataflow has no such cliff.
    ZedModel zed;
    std::vector<std::int64_t> skewed(64, 4);
    skewed[0] = 2048;
    std::vector<std::int64_t> uniform(64, 4 + (2048 - 4) / 64 + 1);
    const auto s = zed.spmmRows(skewed, 64);
    const auto u = zed.spmmRows(uniform, 64);
    EXPECT_GT(s.cycles, u.cycles * 2);
}

/** Longest path, in latency, by a pass over topoOrder(). */
int
criticalPath(const Dfg &d)
{
    std::vector<int> finish(static_cast<std::size_t>(d.size()), 0);
    int best = 0;
    for (int v : d.topoOrder()) {
        int start = 0;
        for (int p : d.preds(v))
            start = std::max(start,
                             finish[static_cast<std::size_t>(p)]);
        finish[static_cast<std::size_t>(v)] = start + d.node(v).latency;
        best = std::max(best, finish[static_cast<std::size_t>(v)]);
    }
    return best;
}

TEST(Dfg, TopoAndCriticalPath)
{
    Dfg d("t");
    const int a = d.addNode("a", DfgOp::Load, 2);
    const int b = d.addNode("b", DfgOp::Load, 2);
    const int c = d.addNode("c", DfgOp::Mul, 1);
    const int e = d.addNode("e", DfgOp::Add, 1);
    d.addEdge(a, c);
    d.addEdge(b, c);
    d.addEdge(c, e);
    EXPECT_EQ(criticalPath(d), 4); // 2 + 1 + 1
    const auto order = d.topoOrder();
    EXPECT_EQ(order.size(), 4u);
    // a and b before c before e.
    auto pos = [&](int v) {
        return std::find(order.begin(), order.end(), v) -
               order.begin();
    };
    EXPECT_LT(pos(a), pos(c));
    EXPECT_LT(pos(b), pos(c));
    EXPECT_LT(pos(c), pos(e));
}

TEST(Dfg, SelfEdgeRejected)
{
    Dfg d("t");
    const int a = d.addNode("a", DfgOp::Add, 1);
    EXPECT_THROW(d.addEdge(a, a), PanicError);
}

TEST(Mapper, RespectsDependencesAndResources)
{
    Dfg d("chain");
    int prev = d.addNode("n0", DfgOp::Load, 2);
    for (int i = 1; i < 6; ++i) {
        const int v = d.addNode(std::string("n").append(std::to_string(i)),
                                DfgOp::Add, 1);
        d.addEdge(prev, v);
        prev = v;
    }
    CgraMapper mapper(CgraConfig{2, 2, 3, 16});
    const auto m = mapper.map(d, 1);
    ASSERT_TRUE(m.ok);

    // Dependences: consumer no earlier than producer finish + route.
    for (int v = 0; v < d.size(); ++v) {
        for (int p : d.preds(v))
            EXPECT_GE(m.timeOf[v],
                      m.timeOf[p] + d.node(p).latency);
    }
    // Resources: one op per (pe, time mod II).
    std::set<std::pair<int, int>> used;
    for (int v = 0; v < d.size(); ++v) {
        const auto key = std::make_pair(m.peOf[v], m.timeOf[v] % m.ii);
        EXPECT_TRUE(used.insert(key).second)
            << "PE slot double-booked";
    }
}

TEST(Mapper, IiAtLeastResourceMii)
{
    // 9 nodes on a 2x2 fabric need II >= ceil(9/4) = 3.
    Dfg d("wide");
    std::vector<int> loads;
    for (int i = 0; i < 9; ++i)
        loads.push_back(d.addNode(
            std::string("l").append(std::to_string(i)), DfgOp::Add, 1));
    CgraMapper mapper(CgraConfig{2, 2, 3, 16});
    const auto m = mapper.map(d, 1);
    ASSERT_TRUE(m.ok);
    EXPECT_GE(m.ii, 3);
}

TEST(Mapper, RecurrenceMiiHonored)
{
    Dfg d("rec");
    d.addNode("a", DfgOp::Add, 1);
    CgraMapper mapper(CgraConfig{4, 4, 3, 16});
    EXPECT_EQ(mapper.map(d, 5).ii, 5);
}

TEST(Mapper, EmptyDfg)
{
    CgraMapper mapper;
    const auto m = mapper.map(Dfg("empty"), 1);
    EXPECT_TRUE(m.ok);
}

TEST(Cgra, ReplicationUnrolls)
{
    Dfg d("body");
    const int a = d.addNode("a", DfgOp::Load, 2);
    const int b = d.addNode("b", DfgOp::Mul, 1);
    d.addEdge(a, b);
    const auto r = replicateDfg(d, 3);
    EXPECT_EQ(r.size(), 6);
    std::size_t edges = 0;
    for (int id = 0; id < r.size(); ++id)
        edges += r.preds(id).size();
    EXPECT_EQ(edges, 3u);
}

TEST(Cgra, LoopKernelThroughputScalesWithUnroll)
{
    Dfg body("b");
    const int a = body.addNode("a", DfgOp::Load, 2);
    const int m = body.addNode("m", DfgOp::Mul, 1);
    body.addEdge(a, m);

    CgraModel cgra(CgraConfig{4, 4, 3, 16});
    const auto wide = cgra.loopKernel(body, 10000, 1, 8, "wide");
    const auto narrow = cgra.loopKernel(body, 10000, 1, 1, "narrow");
    EXPECT_LT(wide.cycles * 3, narrow.cycles);
}

TEST(Cgra, TensorEmulationTracksSystolic)
{
    CgraModel cgra;
    SystolicModel sys(SystolicConfig{});
    EXPECT_EQ(cgra.gemm(128, 128, 128).cycles,
              sys.gemm(128, 128, 128).cycles);
    EXPECT_GT(cgra.gemm(128, 128, 128).get(Activity::InstFetches), 0u);
}

} // namespace
} // namespace canon
