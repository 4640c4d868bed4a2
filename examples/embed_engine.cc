/**
 * @file
 * Embedding the simulator as a library: the canon::engine façade.
 *
 * Build & run:
 *     cmake -B build && cmake --build build
 *     ./build/example_embed_engine
 *
 * canonsim and the figure benches are thin adapters over the same
 * three types this example exercises directly:
 *
 *   1. ScenarioRequest -- a self-validating description of what to
 *      run (workload or model, shape, fabric, architectures, optional
 *      sweep axes), every option spelled as on the canonsim command
 *      line,
 *   2. Engine -- owns the worker pool and the optional result cache;
 *      run() / runBatch() / a streaming per-result callback,
 *   3. ResultSet -- the outcomes, pickable apart per scenario and
 *      per architecture, or rendered as the canonsim tables.
 */

#include <iostream>

#include "engine/engine.hh"
#include "engine/registry.hh"

using namespace canon;

int
main()
{
    // --- 1. a request: SpMM across two architectures ---------------
    // Every option takes its canonsim spelling (see --help / --list).
    engine::ScenarioRequest request;
    request.set("workload", "spmm")
        .set("m", "128")
        .set("k", "128")
        .set("n", "32")
        .set("sparsity", "0.6")
        .set("seed", "7")
        .archs({"canon", "zed"});
    if (!request.validate()) {
        std::cerr << "invalid request: " << request.error() << "\n";
        return 1;
    }

    // --- 2. an engine with its own worker pool ----------------------
    engine::Engine eng(engine::EngineConfig{.jobs = 2});
    engine::ResultSet rs = eng.run(request);
    if (!rs.ok() || rs.failureCount() != 0) {
        std::cerr << "run failed: " << rs.error() << "\n";
        return 1;
    }

    // --- 3. pick the results apart ... ------------------------------
    const runner::ScenarioResult &scenario = rs.scenarios().front();
    for (const auto &[arch, profile] : scenario.cases)
        std::cout << arch << ": " << profile.cycles << " cycles\n";

    // ... or render the canonsim report for the same scenario.
    rs.statsTable().print(std::cout);

    // --- 4. a sweep request, streamed in deterministic order --------
    engine::ScenarioRequest sweep;
    sweep.set("m", "64")
        .set("k", "64")
        .set("n", "16")
        .sweep("sparsity", "0.3,0.6,0.9");
    std::size_t streamed = 0;
    engine::ResultSet swept =
        eng.run(sweep, [&](const runner::ScenarioResult &r) {
            // Called in expansion order while later scenarios may
            // still be executing on other workers.
            std::cout << "streamed [" << streamed++ << "] "
                      << r.job.point << ": "
                      << r.cases.at("canon").cycles << " cycles\n";
        });
    if (swept.failureCount() != 0)
        return 1;

    // --- 5. request batches share one pool --------------------------
    engine::ScenarioRequest gemm;
    gemm.set("workload", "gemm")
        .set("m", "64")
        .set("k", "64")
        .set("n", "16");
    engine::ScenarioRequest window;
    window.set("workload", "sddmm-window")
        .set("m", "256")
        .set("k", "32")
        .set("window", "32");
    for (const engine::ResultSet &b : eng.runBatch({gemm, window}))
        if (!b.ok() || b.failureCount() != 0)
            return 1;
    std::cout << "batch of 2 requests: ok\n";

    // --- 6. validation is construction-time, same voice as the CLI --
    engine::ScenarioRequest bad;
    bad.set("sparsity", "1.5");
    std::cout << "rejected: " << bad.error() << "\n";

    // --- 7. and the registry says what can run ----------------------
    std::cout << "engine knows " << engine::workloadRegistry().size()
              << " workloads, " << engine::modelRegistry().size()
              << " models, " << engine::archRegistry().size()
              << " architectures\n";
    return 0;
}
