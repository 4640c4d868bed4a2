/**
 * @file
 * Workload-layer tests: the Canon runner's column passes against
 * the gold reference, proxy-scaling cross-validation, the
 * cross-architecture suite's qualitative orderings (the paper's
 * headline claims), and PolyBench/model descriptor sanity.
 */

#include <gtest/gtest.h>

#include "cli/options.hh"
#include "obs/collector.hh"
#include "sparse/reference.hh"
#include "workloads/polybench.hh"
#include "workloads/suite.hh"

namespace canon
{
namespace
{

LayerSpec
spmmLayer(std::int64_t m, std::int64_t k, std::int64_t n, double sparsity)
{
    return {"spmm", Workload::Spmm, m, k, n, sparsity};
}

/**
 * An SpMM layer's profile from a proxy of @p rows rows: run()'s
 * operands drawn for @p rows rows from Rng(@p seed), A then B, through
 * spmmExact, and scaled to the full layer as run() scales its own
 * proxy. rows = m is the exact run of the full matrix.
 */
ExecutionProfile
spmmWithProxyRows(const CanonRunner &runner, const LayerSpec &l,
                  std::uint64_t seed, int rows)
{
    const CanonConfig &cfg = runner.config();
    const ProxyPlan plan = runner.plan(l.m, l.k, l.n, cfg.rows);
    Rng rng(seed);
    const auto a = randomSparse(rows, plan.depth, l.sparsity, rng);
    const auto b = randomDense(plan.depth, cfg.cols * kSimdWidth, rng);
    auto p = runner.spmmExact(a, b);
    p.scale((static_cast<double>(l.m) / rows) *
            (static_cast<double>(l.k) / plan.depth) *
            static_cast<double>(plan.passes));
    return p;
}

/** Columns [c0, c0 + w) of @p d, zero past its last column. */
DenseMatrix
columnSlice(const DenseMatrix &d, int c0, int w)
{
    DenseMatrix out(d.rows(), w);
    for (int r = 0; r < d.rows(); ++r)
        for (int c = 0; c < w && c0 + c < d.cols(); ++c)
            out.at(r, c) = d.at(r, c0 + c);
    return out;
}

TEST(CanonRunner, ScaledRunEqualsEveryColumnPass)
{
    // run() simulates one column pass and scales by the pass count:
    // the orchestrators never read data values, so every pass of the
    // dense-stationary schedule repeats the first. With no M proxy,
    // the scaled run must equal spmmExact summed over every B column
    // slice -- the last one zero-padded when N is ragged -- and each
    // slice must compute its exact product on a fabric of its own.
    const struct
    {
        int rows, cols, n;
    } cases[] = {{4, 4, 40}, {8, 8, 96}, {8, 16, 100}};
    for (const auto &c : cases) {
        CanonConfig cfg;
        cfg.rows = c.rows;
        cfg.cols = c.cols;
        cfg.spadEntries = 8;
        const CanonRunner runner(cfg);
        const int m = 48, k = 4 * c.rows;
        const int tile_n = c.cols * kSimdWidth;
        const int passes = (c.n + tile_n - 1) / tile_n;
        const std::string where = std::to_string(c.rows) + "x" +
                                  std::to_string(c.cols) + " N=" +
                                  std::to_string(c.n);
        ASSERT_EQ(runner.plan(m, k, c.n, c.rows).factor, passes) << where;

        const auto got = runner.run(spmmLayer(m, k, c.n, 0.6), 5);
        Rng rng(5);
        const auto a = randomSparse(m, k, 0.6, rng);
        const auto b = randomDense(k, c.n, rng);
        ExecutionProfile want;
        for (int p = 0; p < passes; ++p) {
            const auto slice = columnSlice(b, p * tile_n, tile_n);
            CanonFabric fabric(cfg);
            fabric.load(mapSpmm(a, slice, cfg));
            fabric.run();
            EXPECT_EQ(fabric.result(), reference::spmm(a, slice))
                << where << " pass " << p;
            const auto pass = runner.spmmExact(a, slice);
            if (p == 0)
                want = pass;
            else
                want.accumulate(pass);
        }
        EXPECT_EQ(got.workload, want.workload) << where;
        EXPECT_EQ(got.cycles, want.cycles) << where;
        EXPECT_EQ(got.activity, want.activity) << where;
    }
}

TEST(CanonRunner, UnitFactorSpmmLayerEqualsSpmmExact)
{
    // Figures 15 and 17 and the adaptive-spad ablation run plain SpMM
    // layers through run() at shapes whose proxy is the whole layer.
    // There run() must be exactly spmmExact on the operands it draws:
    // randomSparse, then randomDense, from one Rng(seed).
    const struct
    {
        int rows, cols;
    } fabrics[] = {{8, 8}, {8, 16}, {16, 16}};
    for (const auto &f : fabrics) {
        for (int depth : {1, 4, 16}) {
            for (double sp : {0.3, 0.8}) {
                CanonConfig cfg;
                cfg.rows = f.rows;
                cfg.cols = f.cols;
                cfg.spadEntries = depth;
                const CanonRunner runner(cfg);
                const int m = 96, k = 4 * f.rows;
                const int n = f.cols * kSimdWidth;
                const std::uint64_t seed = 40 + depth;
                const std::string where =
                    std::to_string(f.rows) + "x" +
                    std::to_string(f.cols) + " depth " +
                    std::to_string(depth) + " sparsity " +
                    std::to_string(sp);
                ASSERT_EQ(runner.plan(m, k, n, f.rows).factor, 1.0)
                    << where;

                const auto got = runner.run(spmmLayer(m, k, n, sp), seed);
                Rng rng(seed);
                const auto a = randomSparse(m, k, sp, rng);
                const auto b = randomDense(k, n, rng);
                const auto want = runner.spmmExact(a, b);
                EXPECT_EQ(got.workload, want.workload) << where;
                EXPECT_EQ(got.cycles, want.cycles) << where;
                EXPECT_EQ(got.peCount, want.peCount) << where;
                EXPECT_EQ(got.activity, want.activity) << where;
            }
        }
    }
}

TEST(CanonRunner, ProxyScalingConsistent)
{
    // A proxy-scaled profile should approximate the exact run of the
    // full matrix (same sparsity, same fabric). M is four times the
    // derived 512-row cap, so run() simulates a 4x M proxy.
    CanonConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    CanonRunner runner(cfg);

    const auto layer = spmmLayer(2048, 64, 64, 0.7);
    ASSERT_EQ(runner.plan(layer.m, layer.k, layer.n, cfg.rows).rows, 512);

    const auto exact =
        spmmWithProxyRows(runner, layer, 9, static_cast<int>(layer.m));
    const auto proxy = runner.run(layer, 9);

    const double ratio = static_cast<double>(proxy.cycles) /
                         static_cast<double>(exact.cycles);
    EXPECT_NEAR(ratio, 1.0, 0.15)
        << "proxy " << proxy.cycles << " vs exact " << exact.cycles;

    // At the cap the helper draws and scales what run() does.
    const auto at_cap = spmmWithProxyRows(runner, layer, 9, 512);
    EXPECT_EQ(at_cap.cycles, proxy.cycles);
    EXPECT_EQ(at_cap.activity, proxy.activity);
}

TEST(CanonRunner, ProxyRowCapDerivesFromFabricHeight)
{
    // Default cap: at least kMinProxyRows, at least
    // kMinProxySlicesPerRow slices per orchestrator row, rounded up
    // to a multiple of the height. 8x8 through 32x32 keep the
    // historical 512; taller fabrics scale instead of thinning each
    // orchestrator's sample.
    const auto cap = [](int rows) {
        CanonConfig cfg;
        cfg.rows = rows;
        return proxyRowCap(cfg);
    };
    EXPECT_EQ(cap(8), 512);
    EXPECT_EQ(cap(16), 512);
    EXPECT_EQ(cap(32), 512);
    EXPECT_EQ(cap(24), 528);  // rounded up to a multiple of 24
    EXPECT_EQ(cap(48), 768);  // 16 slices/row beats the 512 floor
    EXPECT_EQ(cap(64), 1024);
}

TEST(CanonRunner, AdaptiveFlushLiftsProxyRowFloor)
{
    // Under the adaptive flush policy the per-row cost curve is flat
    // through >= 4096 resident rows (ResidentRowCostFlat below), so
    // the derived cap starts from the 4x larger
    // kMinProxyRowsAdaptive floor. Eager keeps the historical 512
    // pins of ProxyRowCapDerivesFromFabricHeight untouched.
    const auto cap = [](int rows) {
        CanonConfig cfg;
        cfg.rows = rows;
        cfg.spadFlush = SpadFlushPolicy::Adaptive;
        return proxyRowCap(cfg);
    };
    EXPECT_EQ(cap(8), 2048);
    EXPECT_EQ(cap(16), 2048);
    EXPECT_EQ(cap(32), 2048);
    EXPECT_EQ(cap(24), 2064); // rounded up to a multiple of 24
    EXPECT_EQ(cap(64), 2048);
}

TEST(CanonRunner, ProxyPlanRowsFromEffectiveProxyRows)
{
    // Every shape's simulated rows come from plan(), which takes them
    // from proxyRowCap: eager and adaptive floors, the
    // height-rounded 24-row cap, and a short M simulated whole.
    const auto rows = [](int height, SpadFlushPolicy policy,
                         std::int64_t m) {
        CanonConfig cfg;
        cfg.rows = height;
        cfg.spadFlush = policy;
        const CanonRunner runner(cfg);
        const int cap = proxyRowCap(cfg);
        const int got = runner.plan(m, 64, 32, height).rows;
        EXPECT_EQ(got, std::min<std::int64_t>(m, cap));
        return got;
    };
    EXPECT_EQ(rows(8, SpadFlushPolicy::Eager, 100000), 512);
    EXPECT_EQ(rows(8, SpadFlushPolicy::Adaptive, 100000), 2048);
    EXPECT_EQ(rows(24, SpadFlushPolicy::Eager, 100000), 528);
    EXPECT_EQ(rows(8, SpadFlushPolicy::Eager, 300), 300);
}

TEST(CanonRunner, ProxyPlanClampsAndRoundsDepth)
{
    // 8x8 fabric with 12 dmem slots: the depth capacity is 96.
    CanonConfig cfg;
    cfg.dmemSlots = 12;
    const CanonRunner runner(cfg);
    EXPECT_EQ(runner.plan(64, 13, 32, 8).depth, 16); // up to the height
    EXPECT_EQ(runner.plan(64, 90, 32, 8).depth, 96);
    EXPECT_EQ(runner.plan(64, 200, 32, 8).depth, 96); // clamped
    // 2:8 N:M tiles in quanta of 8 rows x M = 64: rounding 96 up to
    // 128 overshoots the capacity, so the depth steps back to 64.
    EXPECT_EQ(runner.plan(64, 200, 32, 64).depth, 64);
    EXPECT_EQ(runner.plan(64, 40, 32, 64).depth, 64);

    const ProxyPlan p = runner.plan(1024, 200, 32, 8);
    EXPECT_EQ(p.rows, 512);
    EXPECT_DOUBLE_EQ(p.factor, (1024.0 / 512) * (200.0 / 96) * 1.0);
}

TEST(CanonRunner, ProxyPlanFactorCountsEveryColumnPass)
{
    // 8 columns x 4 lanes: N = 80 is three 32-column passes, the last
    // one ragged. One pass is simulated; the factor counts all three.
    const CanonRunner runner;
    const ProxyPlan p = runner.plan(64, 64, 80, 8);
    EXPECT_EQ(p.rows, 64);
    EXPECT_EQ(p.depth, 64);
    EXPECT_EQ(p.passes, 3u);
    EXPECT_DOUBLE_EQ(p.factor, 3.0);
}

/** Raw (unscaled) proxy cycles of one 16x16 SpMM run at @p rows_cap
 *  simulated resident rows, observed through an installed Collector
 *  the way examples/resident_rows.cc measures the curve. */
static std::uint64_t
rawProxyCycles(int rows_cap, SpadFlushPolicy policy)
{
    CanonConfig cfg;
    cfg.rows = 16;
    cfg.cols = 16;
    cfg.spadFlush = policy;

    obs::ObsOptions oo;
    oo.statsJsonOut = "(memory)"; // flat-stats capture, no file
    obs::Collector col(oo);
    std::shared_ptr<const obs::ScenarioObs> seen;
    {
        obs::ScopedCollector scope(col);
        (void)spmmWithProxyRows(
            CanonRunner(cfg), spmmLayer(1 << 20, 128, 16 * kSimdWidth, 0.7),
            42, rows_cap);
        seen = col.finish();
    }
    return seen->runs.front().cycles;
}

TEST(CanonRunner, ResidentRowCostFlatUnderAdaptiveFlush)
{
    // The tentpole acceptance pin: with adaptive flushing, per-row
    // cycles at 2048 resident rows stay within 15% of the 512-row
    // cost (measured: the 2048-row cost is actually *lower*). Under
    // eager flushing the same ratio was 1.61x -- the knee that
    // historically capped the proxy at 512 rows.
    const auto c512 = rawProxyCycles(512, SpadFlushPolicy::Adaptive);
    const auto c2048 = rawProxyCycles(2048, SpadFlushPolicy::Adaptive);
    const double per_row_512 = static_cast<double>(c512) / 512.0;
    const double per_row_2048 = static_cast<double>(c2048) / 2048.0;
    EXPECT_LE(per_row_2048, 1.15 * per_row_512)
        << "cycles/row " << per_row_512 << " @512 vs " << per_row_2048
        << " @2048";
}

TEST(CanonRunner, AdaptiveProxyConsistentAtLiftedCap)
{
    // Proxy-vs-exact cross-validation in the adaptive regime: the
    // derived cap is now 2048, so validate the M-linear
    // extrapolation against an exact run from well above the lifted
    // cap (8192 rows, 4x scaling).
    CanonConfig cfg;
    cfg.rows = 16;
    cfg.cols = 16;
    cfg.spadFlush = SpadFlushPolicy::Adaptive;
    CanonRunner runner(cfg);

    const auto layer = spmmLayer(8192, 512, 64, 0.7);
    const auto exact =
        spmmWithProxyRows(runner, layer, 9, static_cast<int>(layer.m));
    const auto proxy = runner.run(layer, 9);

    const double ratio = static_cast<double>(proxy.cycles) /
                         static_cast<double>(exact.cycles);
    EXPECT_NEAR(ratio, 1.0, 0.15)
        << "proxy " << proxy.cycles << " vs exact " << exact.cycles;
}

TEST(CanonRunner, PolicyAndBankingPreserveResults)
{
    // --tag-banks and --spad-flush are scheduling knobs: psum
    // accumulation is exact integer arithmetic, so whatever order
    // merges happen in, every configuration must produce the
    // reference product bit-for-bit.
    Rng rng(5);
    const auto csr = randomSparse(64, 32, 0.6, rng);
    const auto b = randomDense(32, 32, rng);
    const auto want = reference::spmm(csr, b);

    const struct
    {
        int banks;
        SpadFlushPolicy flush;
    } cases[] = {
        {1, SpadFlushPolicy::Eager},
        {8, SpadFlushPolicy::Eager},
        {1, SpadFlushPolicy::Adaptive},
        {8, SpadFlushPolicy::Adaptive},
    };
    for (const auto &c : cases) {
        CanonConfig cfg;
        cfg.rows = 8;
        cfg.cols = 8;
        cfg.tagBanks = c.banks;
        cfg.spadFlush = c.flush;
        CanonFabric fabric(cfg);
        fabric.load(mapSpmm(csr, b, cfg));
        fabric.run();
        EXPECT_EQ(fabric.result(), want)
            << c.banks << " banks, " << spadFlushName(c.flush);
    }
}

TEST(CanonRunner, BankingIsTimingInvariant)
{
    // Banking only re-shards the associative search: cycles are
    // untouched while tag compares drop and probe counts stay put.
    const auto run = [](int banks) {
        CanonConfig cfg;
        cfg.rows = 8;
        cfg.cols = 8;
        cfg.tagBanks = banks;
        return CanonRunner(cfg).run(spmmLayer(2048, 256, 32, 0.7), 21);
    };
    const auto flat = run(1), banked = run(16);
    EXPECT_EQ(flat.cycles, banked.cycles);
    EXPECT_EQ(flat.get(Activity::BufferSearches),
              banked.get(Activity::BufferSearches));
    EXPECT_LT(banked.get(Activity::TagCompares),
              flat.get(Activity::TagCompares) / 4);
}

TEST(CanonRunner, ProxyScalingConsistentOnLargerFabrics)
{
    // Figure 15's scalability axis: the proxy must stay faithful on
    // 16x16 and 32x32, not just the paper's 8x8. Validation sits in
    // the proxy's design regime -- K in the thousands (hidden
    // dimensions), where per-row-slice populations are authentic and
    // the per-row cycle cost is in its flat region (it rises
    // superlinearly beyond ~1k resident rows as psum-tag pressure
    // grows, which is exactly why the default cap stays at 512).
    const struct
    {
        int size;
        std::int64_t m, k, n;
        int proxy_rows;
    } cases[] = {
        {16, 512, 1024, 64, 128},  // 4x M scaling
        {32, 512, 1024, 128, 256}, // 2x M scaling
    };
    for (const auto &c : cases) {
        CanonConfig cfg;
        cfg.rows = c.size;
        cfg.cols = c.size;
        CanonRunner runner(cfg);

        const auto layer = spmmLayer(c.m, c.k, c.n, 0.7);
        const auto exact = spmmWithProxyRows(runner, layer, 9,
                                             static_cast<int>(c.m));
        const auto proxy =
            spmmWithProxyRows(runner, layer, 9, c.proxy_rows);

        const double ratio = static_cast<double>(proxy.cycles) /
                             static_cast<double>(exact.cycles);
        EXPECT_NEAR(ratio, 1.0, 0.15)
            << c.size << "x" << c.size << ": proxy " << proxy.cycles
            << " vs exact " << exact.cycles;
    }
}

TEST(CanonRunner, LargerFabricsPinnedScalingTrend)
{
    // Regression pin for the 16x16/32x32 proxy-scaling path: one
    // fixed SpMM shape across fabric sizes. Quadrupling the PEs
    // roughly halves the cycles (row-parallel work splits across
    // more orchestrators while per-pass drain overheads grow), and
    // the proxy-scaled MAC totals are invariant -- the same
    // mathematical work, however it is spread.
    const auto run = [](int size) {
        CanonConfig cfg;
        cfg.rows = size;
        cfg.cols = size;
        return CanonRunner(cfg).run(spmmLayer(1024, 256, 128, 0.7), 21);
    };
    const auto p8 = run(8), p16 = run(16), p32 = run(32);

    EXPECT_EQ(p8.get(Activity::LaneMacs), p16.get(Activity::LaneMacs));
    EXPECT_EQ(p8.get(Activity::LaneMacs), p32.get(Activity::LaneMacs));

    EXPECT_GT(p8.cycles, p16.cycles);
    EXPECT_GT(p16.cycles, p32.cycles);
    const double s16 = static_cast<double>(p8.cycles) /
                       static_cast<double>(p16.cycles);
    const double s32 = static_cast<double>(p16.cycles) /
                       static_cast<double>(p32.cycles);
    // Measured 2.18 and 1.83 at this shape; the band flags any
    // change that breaks the scaling story, not noise.
    EXPECT_NEAR(s16, 2.2, 0.5) << p8.cycles << " -> " << p16.cycles;
    EXPECT_NEAR(s32, 1.8, 0.5) << p16.cycles << " -> " << p32.cycles;
}

TEST(ArchSuite, GemmCanonMatchesSystolic)
{
    // Section 6.2: "Canon emulates the systolic dataflow of
    // conventional systolic arrays for the GEMM kernel ... to match
    // their performance" -- the cycle gap is within a few percent
    // either way (the efficiency gap shows up in perf/W instead).
    ArchSuite suite;
    const auto r = suite.run({"gemm", Workload::Gemm, 256, 256, 128}, 11);
    const double canon_c = static_cast<double>(r.at(Arch::Canon).cycles);
    const double sys_c = static_cast<double>(r.at(Arch::Systolic).cycles);
    EXPECT_NEAR(sys_c / canon_c, 1.0, 0.10);
}

TEST(ArchSuite, SystolicFragileUnderHighSparsity)
{
    // "their throughput can drop to less than 0.3x that of Canon".
    ArchSuite suite;
    const auto r =
        suite.run({"spmm", Workload::Spmm, 256, 256, 128, 0.9}, 12);
    const double canon_c = static_cast<double>(r.at(Arch::Canon).cycles);
    const double sys_c = static_cast<double>(r.at(Arch::Systolic).cycles);
    EXPECT_GT(sys_c, canon_c / 0.35)
        << "systolic should be <0.35x Canon at 90% sparsity";
}

TEST(ArchSuite, ZedWithinBandOnUnstructured)
{
    // ZeD and Canon trade within ~10% on unstructured SpMM.
    ArchSuite suite;
    for (double sp : {0.2, 0.5, 0.8}) {
        const auto r =
            suite.run({"spmm", Workload::Spmm, 512, 512, 256, sp}, 13);
        const double canon_c =
            static_cast<double>(r.at(Arch::Canon).cycles);
        const double zed_c = static_cast<double>(r.at(Arch::Zed).cycles);
        EXPECT_GT(zed_c / canon_c, 0.80) << "sparsity " << sp;
        EXPECT_LT(zed_c / canon_c, 1.35) << "sparsity " << sp;
    }
}

TEST(ArchSuite, CanonMatchesTwoFourSystolicOn24)
{
    // Section 6.2: Canon leverages 2:4 structure despite being
    // agnostic to it, comparable to the specialized array.
    ArchSuite suite;
    const auto r = suite.run(
        {"nm", Workload::SpmmNm, 512, 512, 256, 0, 0, 1, 2, 4}, 14);
    const double canon_c = static_cast<double>(r.at(Arch::Canon).cycles);
    const double s24_c =
        static_cast<double>(r.at(Arch::Systolic24).cycles);
    EXPECT_NEAR(canon_c / s24_c, 1.0, 0.30);
}

TEST(ArchSuite, TwoFourSystolicDegradesOn28)
{
    // 2:8 only gets the 2:4-format speedup on the modified systolic
    // array, while Canon's cycles keep tracking nnz.
    ArchSuite suite;
    const auto r24 = suite.run(
        {"nm", Workload::SpmmNm, 512, 512, 256, 0, 0, 1, 2, 4}, 15);
    const auto r28 = suite.run(
        {"nm", Workload::SpmmNm, 512, 512, 256, 0, 0, 1, 2, 8}, 15);
    const double canon_gain =
        static_cast<double>(r24.at(Arch::Canon).cycles) /
        static_cast<double>(r28.at(Arch::Canon).cycles);
    const double s24_gain =
        static_cast<double>(r24.at(Arch::Systolic24).cycles) /
        static_cast<double>(r28.at(Arch::Systolic24).cycles);
    EXPECT_GT(canon_gain, 1.5); // Canon: ~2x fewer non-zeros -> ~2x
    EXPECT_NEAR(s24_gain, 1.0, 0.05); // systolic24: no extra gain
}

TEST(ArchSuite, CanonWinsWindowAttention)
{
    // "Canon outperforms all baselines on window attention."
    ArchSuite suite;
    const auto r = suite.run(
        {"win", Workload::SddmmWindow, 2048, 64, 2048, 0, 256}, 16);
    const double canon_c = static_cast<double>(r.at(Arch::Canon).cycles);
    for (const Arch arch :
         {Arch::Systolic, Arch::Systolic24, Arch::Zed, Arch::Cgra}) {
        EXPECT_GT(static_cast<double>(r.at(arch).cycles), canon_c)
            << archName(arch);
    }
}

TEST(Polybench, SuiteShape)
{
    const auto suite = polybenchSuite();
    EXPECT_GE(suite.size(), 18u);
    int blas = 0, kern = 0, sten = 0;
    for (const auto &k : suite) {
        EXPECT_GT(k.body.size(), 0);
        EXPECT_GT(k.iters, 0);
        EXPECT_GE(k.recMii, 1);
        EXPECT_GE(k.dlp, 1);
        EXPECT_GE(k.vecFraction, 0.0);
        EXPECT_LE(k.vecFraction, 1.0);
        switch (k.group) {
          case PolyGroup::Blas: ++blas; break;
          case PolyGroup::Kernel: ++kern; break;
          case PolyGroup::Stencil: ++sten; break;
        }
    }
    EXPECT_GE(blas, 5);
    EXPECT_GE(kern, 4);
    EXPECT_GE(sten, 4);
}

TEST(Polybench, CgraWinsLowDlpSolvers)
{
    // Section 6.2: CGRAs outperform Canon where data parallelism is
    // low (the BLAS solvers); Canon wins the parallel kernels.
    CgraModel cgra;
    const CanonConfig cfg = CanonConfig::paper();
    int cgra_wins_low_dlp = 0, canon_wins_high_dlp = 0;
    for (const auto &k : polybenchSuite()) {
        const auto c = canonPolybench(k, cfg);
        const auto g = cgraPolybench(k, cgra);
        if (k.dlp <= 8 && g.cycles < c.cycles)
            ++cgra_wins_low_dlp;
        if (k.dlp >= 1024 && c.cycles < g.cycles)
            ++canon_wins_high_dlp;
    }
    EXPECT_GE(cgra_wins_low_dlp, 2);
    EXPECT_GE(canon_wins_high_dlp, 4);
}

TEST(ArchSuite, RunDispatchesEveryWorkload)
{
    // run() is the one dispatch behind canonsim shapes, model layers
    // and the Figure 12/13 matrix: for every workload, each
    // architecture's profile equals the direct call to its model.
    CanonConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    const ArchSuite suite(cfg);
    const CanonRunner canon(cfg);
    const SystolicModel sys(SystolicConfig{16, 16, SparsitySupport::Dense});
    const SystolicModel s24(
        SystolicConfig{16, 16, SparsitySupport::TwoFour});
    const ZedModel zed;
    const CgraModel cgra;
    const std::uint64_t seed = 3;
    const std::int64_t m = 48, k = 40, n = 24, window = 16;
    const double sp = 0.6;
    const int nm_n = 2, nm_m = 8;
    const auto rows = static_cast<std::size_t>(m);
    const auto layer = [&](Workload w) {
        return LayerSpec{"layer", w,      m,   k,    n,
                         sp,      window, 1.0, nm_n, nm_m};
    };
    // ZeD's unstructured row populations: Binomial(len, density) per
    // row, drawn from seed + 1 (exactly, at these small lengths).
    auto sampled = [&](std::int64_t len, double density) {
        Rng rng(seed + 1);
        std::vector<std::int64_t> nnz(rows, 0);
        for (auto &c : nnz)
            for (std::int64_t i = 0; i < len; ++i)
                c += rng.nextBool(density) ? 1 : 0;
        return nnz;
    };

    const std::vector<std::pair<Workload, CaseResult>> expected = {
        {Workload::Gemm,
         {{Arch::Canon, canon.run(layer(Workload::Gemm), seed)},
          {Arch::Systolic, sys.gemm(m, k, n)},
          {Arch::Systolic24, s24.gemm(m, k, n)},
          {Arch::Zed, zed.gemm(m, k, n)},
          {Arch::Cgra, cgra.gemm(m, k, n)}}},
        {Workload::Spmm,
         {{Arch::Canon, canon.run(layer(Workload::Spmm), seed)},
          {Arch::Systolic, sys.spmm(m, k, n, sp)},
          {Arch::Systolic24, s24.spmm(m, k, n, sp)},
          {Arch::Zed, zed.spmmRows(sampled(k, 1.0 - sp), n)},
          {Arch::Cgra, cgra.spmm(m, k, n, sp)}}},
        {Workload::SpmmNm,
         {{Arch::Canon, canon.run(layer(Workload::SpmmNm), seed)},
          {Arch::Systolic, sys.gemm(m, k, n)},
          {Arch::Systolic24, s24.gemm(m, k, n, {nm_n, nm_m})},
          {Arch::Zed,
           zed.spmmRows(std::vector<std::int64_t>(rows, k * nm_n / nm_m),
                        n)},
          {Arch::Cgra,
           cgra.spmm(m, k, n, 1.0 - static_cast<double>(nm_n) / nm_m)}}},
        {Workload::Sddmm,
         {{Arch::Canon, canon.run(layer(Workload::Sddmm), seed)},
          {Arch::Systolic, sys.sddmm(m, k, n, sp)},
          {Arch::Systolic24, s24.sddmm(m, k, n, sp)},
          {Arch::Zed, zed.sddmmRows(sampled(n, 1.0 - sp), k)},
          {Arch::Cgra, cgra.sddmm(m, k, n, sp)}}},
        {Workload::SddmmWindow,
         {{Arch::Canon, canon.run(layer(Workload::SddmmWindow), seed)},
          {Arch::Systolic, sys.sddmmWindow(m, k, window)},
          {Arch::Systolic24, s24.sddmmWindow(m, k, window)},
          {Arch::Zed,
           zed.sddmmRows(std::vector<std::int64_t>(rows, window), k)},
          {Arch::Cgra, cgra.sddmmWindow(m, k, window)}}},
    };
    ASSERT_EQ(expected.size(), cli::workloadTable().size());
    for (const auto &[workload, want] : expected) {
        const CaseResult got = suite.run(layer(workload), seed);
        ASSERT_EQ(got.size(), want.size()) << cli::workloadName(workload);
        for (const auto &[arch, p] : want) {
            const ExecutionProfile &q = got.at(arch);
            const std::string where =
                std::string(cli::workloadName(workload)) + "/" +
                archName(arch);
            EXPECT_EQ(q.workload, p.workload) << where;
            EXPECT_EQ(q.cycles, p.cycles) << where;
            EXPECT_EQ(q.peCount, p.peCount) << where;
            EXPECT_EQ(q.activity, p.activity) << where;
        }
    }

    // Canon runs the window as the dense (m x k x window) product: the
    // GEMM layer's profile under its own name and off-chip traffic.
    auto band = canon.run(layer(Workload::SddmmWindow), seed);
    auto dense = canon.run({"gemm", Workload::Gemm, m, k, window}, seed);
    EXPECT_EQ(band.workload, "sddmm-win");
    EXPECT_EQ(band.cycles, dense.cycles);
    EXPECT_NE(band.get(Activity::OffchipBytes),
              dense.get(Activity::OffchipBytes));
    band.erase(Activity::OffchipBytes);
    dense.erase(Activity::OffchipBytes);
    EXPECT_EQ(band.activity, dense.activity);
}

TEST(Models, SpecsPopulated)
{
    for (const auto &m :
         {resnet50Conv(), llama8bMlp(0.7), llama8bAttn(0.7),
          mistral7bMlp(0.0), mistral7bAttn(), longformerAttn()}) {
        EXPECT_FALSE(m.layers.empty()) << m.name;
        for (const auto &l : m.layers) {
            EXPECT_GT(l.m, 0);
            EXPECT_GT(l.k, 0);
            EXPECT_GT(l.n, 0);
        }
    }
}

TEST(Models, CanonicalSparsityIffTheLayersTakeOne)
{
    // The CLI's relevance matrix and the cache key leave --sparsity
    // out of a model run exactly when the table gives the model no
    // canonical sparsity, so that must hold exactly when the builder
    // ignores its argument.
    for (const ModelInfo &m : modelTable()) {
        const ModelSpec lo = m.build(0.25);
        const ModelSpec hi = m.build(0.75);
        ASSERT_EQ(lo.layers.size(), hi.layers.size()) << m.name;
        bool differ = false;
        for (std::size_t i = 0; i < lo.layers.size(); ++i)
            differ |= lo.layers[i].sparsity != hi.layers[i].sparsity;
        EXPECT_EQ(m.sparsity.has_value(), differ) << m.name;
        EXPECT_EQ(findModel(m.name), &m);
    }
    EXPECT_EQ(findModel("gpt5"), nullptr);
}

} // namespace
} // namespace canon
