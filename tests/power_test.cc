/**
 * @file
 * Energy/area model tests: category accounting, the Figure 10 area
 * shares, the Figure 9 deltas, per-PE power magnitudes in Figure 11's
 * regime, and EDP arithmetic.
 */

#include <gtest/gtest.h>

#include "core/fabric.hh"
#include "kernels/dense_cadence.hh"
#include "kernels/spmm.hh"
#include "power/area.hh"
#include "power/energy.hh"
#include "sparse/generate.hh"

namespace canon
{
namespace
{

TEST(Energy, CategoriesSumToTotal)
{
    ExecutionProfile p;
    p.cycles = 1000;
    p.peCount = 64;
    p.add(Activity::LaneMacs, 5000);
    p.add(Activity::DmemReads, 900);
    p.add(Activity::SpadReads, 100);
    p.add(Activity::SpadWrites, 120);
    p.add(Activity::RouterHops, 300);

    EnergyModel model;
    const auto r = model.evaluate(p);
    double sum = 0.0;
    for (const double v : r.categoriesPj)
        sum += v;
    EXPECT_DOUBLE_EQ(sum, r.totalPj);
    EXPECT_GT(r.totalPj, 0.0);
}

TEST(Energy, MacSlotsDominateLaneMacsForEnergy)
{
    ExecutionProfile p;
    p.cycles = 10;
    p.add(Activity::LaneMacs, 100);   // useful
    p.add(Activity::MacSlots, 400);   // switched (padded dense execution)
    EnergyModel model;
    const auto r = model.evaluate(p);
    EXPECT_DOUBLE_EQ(r.category(EnergyCategory::Compute),
                     400 * EnergyParams{}.macInt8Pj);
}

TEST(Energy, WattsAndEdp)
{
    ExecutionProfile p;
    p.cycles = 1'000'000; // 1 ms at 1 GHz
    p.add(Activity::LaneMacs, 1'000'000);
    EnergyModel model;
    const auto r = model.evaluate(p, 1.0);
    EXPECT_NEAR(r.seconds(), 1e-3, 1e-12);
    EXPECT_GT(r.watts(), 0.0);
    EXPECT_NEAR(r.edp(), r.totalJoules() * 1e-3, 1e-18);
}

TEST(Energy, GemmPerPePowerInPaperRegime)
{
    // Figure 11 shows roughly 1-2 mW per PE for streaming workloads
    // at 1 GHz.
    CanonConfig cfg;
    Rng rng(1);
    const auto a = randomDense(64, 64, rng);
    const auto b = randomDense(64, 32, rng);
    CanonFabric fabric(cfg);
    fabric.load(mapGemm(a, b, cfg));
    fabric.run();

    EnergyModel model;
    const auto r = model.evaluate(fabric.profile("gemm"));
    const double per_pe_mw = r.watts() / cfg.numPes() * 1e3;
    EXPECT_GT(per_pe_mw, 0.3);
    EXPECT_LT(per_pe_mw, 3.0);
}

TEST(Energy, SparsityShiftsPowerIntoScratchpad)
{
    // Figure 11: moving from GEMM to high sparsity, the scratchpad
    // share grows from zero.
    CanonConfig cfg;
    Rng rng(2);
    EnergyModel model;

    const auto ag = randomDense(64, 64, rng);
    const auto b = randomDense(64, 32, rng);
    CanonFabric gemm_fab(cfg);
    gemm_fab.load(mapGemm(ag, b, cfg));
    gemm_fab.run();
    const auto gemm_r = model.evaluate(gemm_fab.profile("gemm"));
    EXPECT_DOUBLE_EQ(gemm_r.category(EnergyCategory::SpadRead) +
                         gemm_r.category(EnergyCategory::SpadWrite),
                     0.0);

    const auto as = randomSparse(64, 64, 0.8, rng);
    CanonFabric sp_fab(cfg);
    sp_fab.load(mapSpmm(as, b, cfg));
    sp_fab.run();
    const auto sp_r = model.evaluate(sp_fab.profile("spmm"));
    EXPECT_GT(sp_r.category(EnergyCategory::SpadRead) +
                  sp_r.category(EnergyCategory::SpadWrite),
              0.0);
}

TEST(Area, CanonSharesMatchFigure10)
{
    AreaModel model;
    const auto b = model.canon();
    // Paper: 58 / 13 / 16 / 5 / 8 percent.
    EXPECT_NEAR(b.share("dataMem"), 0.58, 0.05);
    EXPECT_NEAR(b.share("spad"), 0.13, 0.04);
    EXPECT_NEAR(b.share("compute"), 0.16, 0.04);
    EXPECT_NEAR(b.share("routing"), 0.05, 0.03);
    EXPECT_NEAR(b.share("control"), 0.08, 0.03);
}

TEST(Area, Figure9Deltas)
{
    AreaModel model;
    const double canon = model.canon().total();
    const double systolic = model.systolic().total();
    const double zed = model.zed().total();
    const double cgra = model.cgra().total();

    // +30% vs systolic, +9% vs ZeD, -7% vs CGRA (Figure 9).
    EXPECT_NEAR(canon / systolic, 1.30, 0.08);
    EXPECT_NEAR(canon / zed, 1.09, 0.06);
    EXPECT_NEAR(canon / cgra, 0.93, 0.06);
}

TEST(Area, SystolicSplitMatchesFigure10)
{
    AreaModel model;
    const auto b = model.systolic();
    EXPECT_NEAR(b.share("dataMem"), 0.83, 0.05);
    EXPECT_NEAR(b.share("compute"), 0.17, 0.05);
}

TEST(Area, ScalesWithArray)
{
    AreaModel model;
    const auto small = model.canon(4, 4);
    const auto big = model.canon(8, 8);
    EXPECT_NEAR(big.total() / small.total(), 4.0, 0.5);
}

} // namespace
} // namespace canon
