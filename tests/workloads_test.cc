/**
 * @file
 * Workload-layer tests: the tiled Canon runner against the gold
 * reference, proxy-scaling cross-validation, the cross-architecture
 * suite's qualitative orderings (the paper's headline claims), and
 * PolyBench/model descriptor sanity.
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

TEST(CanonRunner, ExactTiledSpmmMatchesReference)
{
    CanonConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.spadEntries = 8;
    CanonRunner runner(cfg);

    Rng rng(5);
    // N = 40 spans 2.5 native tiles; K = 20 needs padding to 20->20
    // (rows=4 divides 20).
    const auto a = randomSparse(30, 20, 0.6, rng);
    const auto b = randomDense(20, 40, rng);
    const auto csr = CsrMatrix::fromDense(a);

    WordMatrix c;
    runner.spmmExact(csr, b, &c);
    EXPECT_EQ(c, reference::spmm(csr, b));
}

TEST(CanonRunner, ProxyScalingConsistent)
{
    // A proxy-scaled profile should approximate the exact run of the
    // full shape (same sparsity, same fabric).
    CanonConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    CanonRunner runner(cfg);

    const std::int64_t m = 256, k = 64, n = 64;
    const double sparsity = 0.7;

    CanonRunOptions exact_opt;
    exact_opt.maxProxyRows = 1 << 20; // no scaling
    exact_opt.maxProxyPasses = 1 << 20;
    const auto exact =
        runner.spmmShape(m, k, n, sparsity, 9, exact_opt);

    CanonRunOptions proxy_opt;
    proxy_opt.maxProxyRows = 64; // 4x M scaling
    proxy_opt.maxProxyPasses = 2;
    const auto proxy =
        runner.spmmShape(m, k, n, sparsity, 9, proxy_opt);

    const double ratio = static_cast<double>(proxy.cycles) /
                         static_cast<double>(exact.cycles);
    EXPECT_NEAR(ratio, 1.0, 0.15)
        << "proxy " << proxy.cycles << " vs exact " << exact.cycles;
}

TEST(CanonRunner, ProxyRowCapDerivesFromFabricHeight)
{
    // Default cap: at least kMinProxyRows, at least
    // kMinProxySlicesPerRow slices per orchestrator row, rounded up
    // to a multiple of the height. 8x8 through 32x32 keep the
    // historical 512; taller fabrics scale instead of thinning each
    // orchestrator's sample.
    const CanonRunOptions opt;
    const auto cap = [&](int rows) {
        CanonConfig cfg;
        cfg.rows = rows;
        return opt.effectiveProxyRows(cfg);
    };
    EXPECT_EQ(cap(8), 512);
    EXPECT_EQ(cap(16), 512);
    EXPECT_EQ(cap(32), 512);
    EXPECT_EQ(cap(24), 528);  // rounded up to a multiple of 24
    EXPECT_EQ(cap(48), 768);  // 16 slices/row beats the 512 floor
    EXPECT_EQ(cap(64), 1024);

    CanonRunOptions explicit_opt;
    explicit_opt.maxProxyRows = 64; // explicit settings win
    CanonConfig cfg;
    cfg.rows = 64;
    EXPECT_EQ(explicit_opt.effectiveProxyRows(cfg), 64);
}

TEST(CanonRunner, AdaptiveFlushLiftsProxyRowFloor)
{
    // Under the adaptive flush policy the per-row cost curve is flat
    // through >= 4096 resident rows (ResidentRowCostFlat below), so
    // the derived cap starts from the 4x larger
    // kMinProxyRowsAdaptive floor. Eager keeps the historical 512
    // pins of ProxyRowCapDerivesFromFabricHeight untouched.
    const CanonRunOptions opt;
    const auto cap = [&](int rows) {
        CanonConfig cfg;
        cfg.rows = rows;
        cfg.spadFlush = SpadFlushPolicy::Adaptive;
        return opt.effectiveProxyRows(cfg);
    };
    EXPECT_EQ(cap(8), 2048);
    EXPECT_EQ(cap(16), 2048);
    EXPECT_EQ(cap(32), 2048);
    EXPECT_EQ(cap(24), 2064); // rounded up to a multiple of 24
    EXPECT_EQ(cap(64), 2048);

    CanonRunOptions explicit_opt;
    explicit_opt.maxProxyRows = 64; // explicit settings still win
    CanonConfig cfg;
    cfg.rows = 16;
    cfg.spadFlush = SpadFlushPolicy::Adaptive;
    EXPECT_EQ(explicit_opt.effectiveProxyRows(cfg), 64);
}

TEST(CanonRunner, ProxyPlanRowsFromEffectiveProxyRows)
{
    // Every shape's simulated rows come from plan(), which takes them
    // from effectiveProxyRows: eager and adaptive floors, the
    // height-rounded 24-row cap, and a short M simulated whole.
    const auto rows = [](int height, SpadFlushPolicy policy,
                         std::int64_t m) {
        CanonConfig cfg;
        cfg.rows = height;
        cfg.spadFlush = policy;
        const CanonRunner runner(cfg);
        const int cap = CanonRunOptions{}.effectiveProxyRows(cfg);
        const int got = runner.plan(m, 64, 32, height).rows;
        EXPECT_EQ(got, std::min<std::int64_t>(m, cap));
        return got;
    };
    EXPECT_EQ(rows(8, SpadFlushPolicy::Eager, 100000), 512);
    EXPECT_EQ(rows(8, SpadFlushPolicy::Adaptive, 100000), 2048);
    EXPECT_EQ(rows(24, SpadFlushPolicy::Eager, 100000), 528);
    EXPECT_EQ(rows(8, SpadFlushPolicy::Eager, 300), 300);

    CanonRunOptions explicit_opt;
    explicit_opt.maxProxyRows = 64;
    EXPECT_EQ(CanonRunner().plan(100000, 64, 32, 8, explicit_opt).rows,
              64);
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

TEST(CanonRunner, ProxyPlanHonoursMaxProxyPasses)
{
    // 8 columns x 4 lanes: N = 80 is three 32-column passes.
    const CanonRunner runner;
    CanonRunOptions opt;
    const ProxyPlan one = runner.plan(64, 64, 80, 8, opt);
    EXPECT_EQ(one.passes, 3u);
    EXPECT_EQ(one.simPasses, 1u);
    EXPECT_DOUBLE_EQ(one.factor, 3.0);

    opt.maxProxyPasses = 2;
    const ProxyPlan two = runner.plan(64, 64, 80, 8, opt);
    EXPECT_EQ(two.simPasses, 2u);
    EXPECT_DOUBLE_EQ(two.factor, 1.5);

    opt.maxProxyPasses = 8;
    const ProxyPlan all = runner.plan(64, 64, 80, 8, opt);
    EXPECT_EQ(all.simPasses, 3u);
    EXPECT_DOUBLE_EQ(all.factor, 1.0);
}

/** Raw (unscaled) proxy cycles of one 16x16 SpMM run at @p rows
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
        CanonRunner runner(cfg);
        CanonRunOptions opt;
        opt.maxProxyRows = rows_cap;
        (void)runner.spmmShape(1 << 20, 128, 16 * kSimdWidth, 0.7, 42,
                               opt);
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

    const std::int64_t m = 8192, k = 512, n = 64;

    CanonRunOptions exact_opt;
    exact_opt.maxProxyRows = 1 << 20; // no scaling
    exact_opt.maxProxyPasses = 1 << 20;
    const auto exact = runner.spmmShape(m, k, n, 0.7, 9, exact_opt);

    const auto proxy = runner.spmmShape(m, k, n, 0.7, 9, {});

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
    const auto a = randomSparse(64, 32, 0.6, rng);
    const auto b = randomDense(32, 32, rng);
    const auto csr = CsrMatrix::fromDense(a);
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
        WordMatrix got;
        CanonRunner(cfg).spmmExact(csr, b, &got);
        EXPECT_EQ(got, want)
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
        return CanonRunner(cfg).spmmShape(2048, 256, 32, 0.7, 21);
    };
    const auto flat = run(1), banked = run(16);
    EXPECT_EQ(flat.cycles, banked.cycles);
    EXPECT_EQ(flat.get("bufferSearches"),
              banked.get("bufferSearches"));
    EXPECT_LT(banked.get("tagCompares"),
              flat.get("tagCompares") / 4);
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

        CanonRunOptions exact_opt;
        exact_opt.maxProxyRows = 1 << 20; // no scaling
        exact_opt.maxProxyPasses = 1 << 20;
        const auto exact =
            runner.spmmShape(c.m, c.k, c.n, 0.7, 9, exact_opt);

        CanonRunOptions proxy_opt;
        proxy_opt.maxProxyRows = c.proxy_rows;
        const auto proxy =
            runner.spmmShape(c.m, c.k, c.n, 0.7, 9, proxy_opt);

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
        return CanonRunner(cfg).spmmShape(1024, 256, 128, 0.7, 21);
    };
    const auto p8 = run(8), p16 = run(16), p32 = run(32);

    EXPECT_EQ(p8.get("laneMacs"), p16.get("laneMacs"));
    EXPECT_EQ(p8.get("laneMacs"), p32.get("laneMacs"));

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
    const auto r = suite.gemm(256, 256, 128, 11);
    const double canon_c = static_cast<double>(r.at("canon").cycles);
    const double sys_c = static_cast<double>(r.at("systolic").cycles);
    EXPECT_NEAR(sys_c / canon_c, 1.0, 0.10);
}

TEST(ArchSuite, SystolicFragileUnderHighSparsity)
{
    // "their throughput can drop to less than 0.3x that of Canon".
    ArchSuite suite;
    const auto r = suite.spmm(256, 256, 128, 0.9, 12);
    const double canon_c = static_cast<double>(r.at("canon").cycles);
    const double sys_c = static_cast<double>(r.at("systolic").cycles);
    EXPECT_GT(sys_c, canon_c / 0.35)
        << "systolic should be <0.35x Canon at 90% sparsity";
}

TEST(ArchSuite, ZedWithinBandOnUnstructured)
{
    // ZeD and Canon trade within ~10% on unstructured SpMM.
    ArchSuite suite;
    for (double sp : {0.2, 0.5, 0.8}) {
        const auto r = suite.spmm(512, 512, 256, sp, 13);
        const double canon_c =
            static_cast<double>(r.at("canon").cycles);
        const double zed_c = static_cast<double>(r.at("zed").cycles);
        EXPECT_GT(zed_c / canon_c, 0.80) << "sparsity " << sp;
        EXPECT_LT(zed_c / canon_c, 1.35) << "sparsity " << sp;
    }
}

TEST(ArchSuite, CanonMatchesTwoFourSystolicOn24)
{
    // Section 6.2: Canon leverages 2:4 structure despite being
    // agnostic to it, comparable to the specialized array.
    ArchSuite suite;
    const auto r = suite.spmmNm(512, 512, 256, 2, 4, 14);
    const double canon_c = static_cast<double>(r.at("canon").cycles);
    const double s24_c =
        static_cast<double>(r.at("systolic24").cycles);
    EXPECT_NEAR(canon_c / s24_c, 1.0, 0.30);
}

TEST(ArchSuite, TwoFourSystolicDegradesOn28)
{
    // 2:8 only gets the 2:4-format speedup on the modified systolic
    // array, while Canon's cycles keep tracking nnz.
    ArchSuite suite;
    const auto r24 = suite.spmmNm(512, 512, 256, 2, 4, 15);
    const auto r28 = suite.spmmNm(512, 512, 256, 2, 8, 15);
    const double canon_gain =
        static_cast<double>(r24.at("canon").cycles) /
        static_cast<double>(r28.at("canon").cycles);
    const double s24_gain =
        static_cast<double>(r24.at("systolic24").cycles) /
        static_cast<double>(r28.at("systolic24").cycles);
    EXPECT_GT(canon_gain, 1.5); // Canon: ~2x fewer non-zeros -> ~2x
    EXPECT_NEAR(s24_gain, 1.0, 0.05); // systolic24: no extra gain
}

TEST(ArchSuite, CanonWinsWindowAttention)
{
    // "Canon outperforms all baselines on window attention."
    ArchSuite suite;
    const auto r = suite.sddmmWindow(2048, 64, 256, 16);
    const double canon_c = static_cast<double>(r.at("canon").cycles);
    for (const auto &arch :
         {"systolic", "systolic24", "zed", "cgra"}) {
        EXPECT_GT(static_cast<double>(r.at(arch).cycles), canon_c)
            << arch;
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
    // run() is the one dispatch behind canonsim shapes and model
    // layers: for every workload it equals the per-kind method.
    CanonConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    const ArchSuite suite(cfg);
    const std::uint64_t seed = 3;
    const std::vector<std::pair<Workload, CaseResult>> expected = {
        {Workload::Gemm, suite.gemm(48, 40, 24, seed)},
        {Workload::Spmm, suite.spmm(48, 40, 24, 0.6, seed)},
        {Workload::SpmmNm, suite.spmmNm(48, 40, 24, 2, 8, seed)},
        {Workload::Sddmm, suite.sddmm(48, 40, 24, 0.6, seed)},
        {Workload::SddmmWindow, suite.sddmmWindow(48, 40, 16, seed)},
    };
    ASSERT_EQ(expected.size(), cli::workloadTable().size());
    for (const auto &[workload, want] : expected) {
        const LayerSpec layer{"layer", workload, 48, 40, 24, 0.6, 16,
                              1.0, 2, 8};
        const CaseResult got = suite.run(layer, seed);
        ASSERT_EQ(got.size(), want.size()) << cli::workloadName(workload);
        for (const auto &[arch, p] : want) {
            const ExecutionProfile &q = got.at(arch);
            const std::string where =
                std::string(cli::workloadName(workload)) + "/" + arch;
            EXPECT_EQ(q.workload, p.workload) << where;
            EXPECT_EQ(q.cycles, p.cycles) << where;
            EXPECT_EQ(q.peCount, p.peCount) << where;
            EXPECT_EQ(q.activity, p.activity) << where;
        }
    }
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

} // namespace
} // namespace canon
