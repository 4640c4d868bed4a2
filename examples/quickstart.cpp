/**
 * @file
 * Quickstart: run a sparse matrix multiplication on the Canon fabric
 * and inspect what the architecture did.
 *
 * Build & run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/quickstart
 *
 * The flow below is the whole public API story:
 *   1. make a sparse A and dense B,
 *   2. map them onto a fabric configuration (this compiles the
 *      orchestrator FSM bitstream, slices B into the PE data
 *      memories, and schedules the meta-data streams),
 *   3. run the cycle-level simulation,
 *   4. read the result back and compare against the reference.
 */

#include <iostream>

#include "core/fabric.hh"
#include "kernels/spmm.hh"
#include "power/energy.hh"
#include "sparse/generate.hh"
#include "sparse/reference.hh"

using namespace canon;

int
main()
{
    // --- 1. a 60%-sparse A (64x64) and dense B (64x32) -------------
    Rng rng(/*seed=*/42);
    const auto a_dense = randomSparse(64, 64, /*sparsity=*/0.6, rng);
    const auto a = CsrMatrix::fromDense(a_dense);
    const auto b = randomDense(64, 32, rng);
    std::cout << "A: 64x64, " << a.nnz() << " non-zeros ("
              << static_cast<int>(a.sparsity() * 100) << "% sparse)\n";

    // --- 2. map onto the paper's 8x8 configuration ------------------
    const auto cfg = CanonConfig::paper();
    std::cout << "Fabric: " << cfg.describe() << "\n";

    CanonFabric fabric(cfg);
    fabric.load(mapSpmm(a, b, cfg));

    // --- 3. simulate -------------------------------------------------
    const auto cycles = fabric.run();

    // --- 4. verify + report ------------------------------------------
    const bool ok = fabric.result() == reference::spmm(a, b);
    std::cout << "result " << (ok ? "MATCHES" : "DIFFERS FROM")
              << " the reference\n";

    const auto profile = fabric.profile("quickstart-spmm");
    std::cout << "cycles:            " << cycles << "\n"
              << "lane utilization:  "
              << profile.utilization(cfg.numPes() * kSimdWidth) << "\n"
              << "FSM transitions:   " << profile.get("stateTransitions")
              << "\n"
              << "stall cycles:      "
              << fabric.stats().sumCounter("stallCycles") << "\n";

    EnergyModel energy;
    const auto r = energy.evaluate(profile);
    std::cout << "energy:            " << r.totalJoules() * 1e9
              << " nJ\n"
              << "average power:     " << r.watts() * 1e3 << " mW\n";
    return ok ? 0 : 1;
}
