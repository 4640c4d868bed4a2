/**
 * @file
 * Sparse attention on Canon: the QK^T score computation of a
 * transformer layer under two sparsification regimes the paper
 * evaluates --
 *
 *   (a) unstructured sparse attention (Sanger/ViTCoD-style): a
 *       runtime mask samples the score matrix => SDDMM with the mask
 *       driving the orchestrators' dynamic decisions;
 *   (b) sliding-window attention (Longformer/Mistral): the band is
 *       compile-time structure => Canon's structured mapping computes
 *       exactly the band (Section 4.1.3).
 *
 * Both are checked against the reference and compared against what a
 * dense accelerator would have to do.
 */

#include <iostream>

#include "baselines/systolic.hh"
#include "common/table.hh"
#include "core/fabric.hh"
#include "kernels/sddmm.hh"
#include "sparse/generate.hh"
#include "sparse/reference.hh"
#include "workloads/canon_runner.hh"

using namespace canon;

int
main()
{
    Rng rng(7);
    const int seq = 64, head_dim = 32;

    // Q and K^T for one attention head (INT8-quantized scores).
    const auto q = randomDense(seq, head_dim, rng);
    const auto kt = randomDense(head_dim, seq, rng);

    const auto cfg = CanonConfig::paper();

    // ---- (a) unstructured sparse attention --------------------------
    const auto mask = randomMask(seq, seq, /*sparsity=*/0.75, rng);
    CanonFabric fabric(cfg);
    fabric.load(mapSddmm(mask, q, kt, cfg));
    const auto cycles_u = fabric.run();
    const bool ok =
        fabric.result() == reference::sddmm(mask, q, kt);
    std::cout << "unstructured mask (" << mask.nnz() << "/"
              << seq * seq << " scores live): " << cycles_u
              << " cycles, result "
              << (ok ? "verified" : "WRONG") << "\n";

    // A dense engine computes all seq*seq scores regardless:
    SystolicModel dense(SystolicConfig{});
    std::cout << "  dense accelerator baseline:  "
              << dense.sddmm(seq, head_dim, seq, 0.75).cycles
              << " cycles (computes every score)\n";

    // ---- (b) sliding-window attention --------------------------------
    const int window = 16;
    const auto band = slidingWindowMask(seq, seq, window);
    CanonFabric fabric_w(cfg);
    fabric_w.load(mapSddmm(band, q, kt, cfg));
    const auto cycles_w = fabric_w.run();
    const bool ok_w =
        fabric_w.result() == reference::sddmm(band, q, kt);
    std::cout << "window mask (band of " << window << "): "
              << cycles_w << " cycles, result "
              << (ok_w ? "verified" : "WRONG") << "\n";

    // At paper scale the structured mapping + proxy scaling kick in:
    CanonRunner runner(cfg);
    const auto win1 = runner.run(
        {"win1", Workload::SddmmWindow, 4096, 64, 4096, 0.0, 512}, 9);
    const auto chunked =
        dense.sddmmWindow(4096, 64, 512);
    std::cout << "\nLongformer Win1 (seq 4K, window 512):\n"
              << "  Canon structured mapping: " << win1.cycles
              << " cycles\n"
              << "  sliding-chunk dense conversion: "
              << chunked.cycles << " cycles ("
              << Table::fmt(static_cast<double>(chunked.cycles) /
                                static_cast<double>(win1.cycles),
                            2)
              << "x slower)\n";
    return ok && ok_w ? 0 : 1;
}
