/**
 * @file
 * Program-level FSM tests for the dense-cadence and SDDMM kernels:
 * state residency, merge/bypass/prefetch behaviour observed on live
 * fabrics, and the LUT-visible structure of the compiled programs.
 */

#include <gtest/gtest.h>

#include "core/fabric.hh"
#include "csr.hh"
#include "kernels/dense_cadence.hh"
#include "kernels/sddmm.hh"
#include "kernels/spmm.hh"
#include "sparse/generate.hh"
#include "sparse/reference.hh"

namespace canon
{
namespace
{

TEST(CadenceFsm, FlushEveryCadence)
{
    // Each orchestrator must emit exactly one PSUM message per output
    // row: M flushes.
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    Rng rng(1);
    const int m = 12, k = 16;
    const auto a = randomDense(m, k, rng);
    const auto b = randomDense(k, 8, rng);
    CanonFabric fabric(cfg);
    fabric.load(mapGemm(a, b, cfg));
    fabric.run();

    // Row 0 sends only its own flushes; row 1 additionally relays
    // nothing when merges succeed.
    const auto row0 = fabric.flatStats().at("orch0.msgsSent");
    EXPECT_EQ(row0, static_cast<std::uint64_t>(m));
}

TEST(CadenceFsm, MergesDominateBypassesWhenAligned)
{
    // With compile-time skew in place, nearly every upstream psum
    // merges into the register ring instead of bypassing.
    CanonConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    Rng rng(2);
    const int m = 64, k = 64;
    const auto a = randomDense(m, k, rng);
    const auto b = randomDense(k, 16, rng);
    CanonFabric fabric(cfg);
    fabric.load(mapGemm(a, b, cfg));
    fabric.run();

    const auto bypasses =
        fabric.sumCounter("fwdAhead") +
        fabric.sumCounter("fwdBehind");
    // Upstream psums total m * (rows-1); demand high merge rates.
    EXPECT_LT(bypasses, static_cast<std::uint64_t>(m) * 3 / 2)
        << "skew/merge window should absorb nearly all psums";
    EXPECT_EQ(fabric.result(), reference::gemm(a, b));
}

TEST(CadenceFsm, VisitsMergeAndFlushStates)
{
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    Rng rng(3);
    const auto a = randomDense(8, 16, rng);
    const auto b = randomDense(16, 8, rng);
    CanonFabric fabric(cfg);
    fabric.load(mapGemm(a, b, cfg));

    bool saw_flush = false, saw_merge = false;
    while (!fabric.done()) {
        fabric.step();
        saw_flush |= fabric.orch(0).state() == cadence_state::kFlush;
        saw_merge |= fabric.orch(1).state() == cadence_state::kMerge;
    }
    EXPECT_TRUE(saw_flush);
    EXPECT_TRUE(saw_merge);
}

TEST(SddmmFsm, PrefetchWindowBoundsMeta)
{
    // meta1 (prefetched) may lead meta0 (current mask row) by at most
    // the scratchpad depth, and must never trail it.
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.spadEntries = 4;
    Rng rng(4);
    const int m = 24;
    const auto a = randomDense(m, 8, rng);
    const auto b = randomDense(8, 8, rng);
    const auto mask = randomMask(m, 8, 0.4, rng);
    CanonFabric fabric(cfg);
    fabric.load(mapSddmm(mask, a, b, cfg));

    while (!fabric.done()) {
        fabric.step();
        for (int r = 0; r < cfg.rows; ++r) {
            const auto m0 = fabric.orch(r).meta(0);
            const auto m1 = fabric.orch(r).meta(1);
            ASSERT_GE(m1, m0);
            ASSERT_LE(m1 - m0, cfg.spadEntries);
        }
    }
    EXPECT_EQ(fabric.result(), reference::sddmm(mask, a, b));
}

TEST(SddmmFsm, AllRowsForwardEveryAVector)
{
    // Every orchestrator relays all M A-vector announcements (its
    // meta1 ends at M), even rows whose mask block is empty.
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.spadEntries = 4;
    Rng rng(5);
    const int m = 16;
    const auto a = randomDense(m, 8, rng);
    const auto b = randomDense(8, 8, rng);
    DenseMatrix live(m, 8); // only row block 0 has work
    for (int i = 0; i < m; ++i)
        live.at(i, 1) = 1;
    const auto mask = fromDense(live);
    CanonFabric fabric(cfg);
    fabric.load(mapSddmm(mask, a, b, cfg));
    fabric.run();
    for (int r = 0; r < cfg.rows; ++r)
        EXPECT_EQ(fabric.orch(r).meta(1), m) << "row " << r;
    EXPECT_EQ(fabric.result(), reference::sddmm(mask, a, b));
}

TEST(SddmmFsm, ReachesDone)
{
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.spadEntries = 2;
    Rng rng(6);
    const auto a = randomDense(8, 8, rng);
    const auto b = randomDense(8, 8, rng);
    const auto mask = randomMask(8, 8, 0.5, rng);
    CanonFabric fabric(cfg);
    fabric.load(mapSddmm(mask, a, b, cfg));
    fabric.run();
    for (int r = 0; r < cfg.rows; ++r)
        EXPECT_EQ(fabric.orch(r).state(), sddmm_state::kDone);
}

TEST(Programs, LutImagesDiffer)
{
    // The three kernel programs must compile to genuinely different
    // LUT images (no accidental sharing): compare all 1,024 entries.
    auto image = [](const OrchProgram &prog) {
        std::vector<OutputFields> entries;
        for (int i = 0; i < kLutEntries; ++i)
            entries.push_back(
                prog.lut().lookup(static_cast<std::uint16_t>(i)));
        return entries;
    };
    const auto spmm_lut = image(*buildSpmmProgram());
    const auto cad_lut = image(*buildCadenceProgram(16));
    const auto sddmm_lut = image(*buildSddmmProgram(64, 8));
    EXPECT_NE(spmm_lut, cad_lut);
    EXPECT_NE(spmm_lut, sddmm_lut);
    EXPECT_NE(cad_lut, sddmm_lut);
}

TEST(Programs, CadenceConstantIsVisible)
{
    const auto p8 = buildCadenceProgram(8);
    const auto p32 = buildCadenceProgram(32);
    EXPECT_EQ(p8->condConst(), 8);
    EXPECT_EQ(p32->condConst(), 32);
}

} // namespace
} // namespace canon
