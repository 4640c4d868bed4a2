/**
 * @file
 * The sensitivity figures: Figure 15 (utilization vs array/problem
 * scale and arithmetic intensity, with a fixed-intensity control),
 * Figure 16 (off-chip bandwidth required to hold the compute
 * roofline across SRAM sizes), and Figure 17 (scratchpad-depth
 * sweep). Every row derives its RNG seed from its own grid point, so
 * the grids run on the worker pool in any order.
 */

#include "figures.hh"

#include <cmath>

#include "common/table.hh"
#include "workloads/canon_runner.hh"

namespace canon
{
namespace bench
{

FigureBench
figure15Bench()
{
    FigureBench bench("bench_fig15_scalability");

    // The fabric and the SpMM problem scale together (1x-8x); at each
    // scale several sparsity levels produce different arithmetic
    // intensities. The paper's claim to reproduce: utilization tracks
    // arithmetic intensity, with no clear correlation to scale.
    FigureTable main_t;
    main_t.title = "Figure 15: compute utilization vs array/problem "
                   "scale and arithmetic intensity";
    main_t.header = {"Scale", "PEs", "Sparsity",
                     "ArithIntensity(ops/elem)", "Utilization"};
    main_t.csvName = "fig15_scalability.csv";
    main_t.grid.axis("scale", {"1", "2", "3", "4", "5", "6", "7", "8"})
        .axis("sparsity", {"0.30", "0.60", "0.90"});
    main_t.emit = [](const FigurePoint &p) -> FigureRows {
        const int scale = p.integer("scale");
        const double sp = p.number("sparsity");

        CanonConfig cfg;
        cfg.rows = 8;
        cfg.cols = 8 * scale; // scale the array out column-wise
        CanonRunner runner(cfg);

        const std::int64_t m = 96;
        const std::int64_t k = 32 * scale * 8 / 8 * 8; // K scales too
        const std::int64_t n = cfg.cols * kSimdWidth;

        // One column pass over the whole of M and K: simulated as is.
        const auto prof =
            runner.run({"spmm", Workload::Spmm, m, k, n, sp},
                       static_cast<std::uint64_t>(scale) * 100 +
                           static_cast<std::uint64_t>(sp * 10));
        const auto lanes =
            static_cast<std::uint64_t>(cfg.numPes() * kSimdWidth);
        // Every nonzero multiplies an N-wide row of B.
        const auto nnz =
            static_cast<double>(prof.get(Activity::LaneMacs) /
                                static_cast<std::uint64_t>(n));
        // Ops per fetched element: 2*N MACs per nnz over the
        // coordinate+value bytes.
        const double ai = 2.0 * nnz * static_cast<double>(n) /
                          (nnz * 3.0 + static_cast<double>(m) * 2.0);
        return {{std::to_string(scale) + "x",
                 std::to_string(cfg.numPes()), Table::fmt(sp, 2),
                 Table::fmt(ai, 1),
                 Table::fmt(prof.utilization(lanes), 3)}};
    };
    bench.add(std::move(main_t));

    // Control experiment: hold the workload's arithmetic intensity
    // fixed (same K, same sparsity) while the array scales -- the
    // paper's claim is that utilization then stays flat.
    FigureTable control_t;
    control_t.title = "Figure 15 (control): fixed arithmetic intensity "
                      "across scales";
    control_t.header = {"Scale", "PEs", "Sparsity", "Utilization"};
    control_t.csvName = "fig15_fixed_ai.csv";
    control_t.grid.axis("scale", {"1", "2", "4", "8"})
        .axis("sparsity", {"0.30", "0.60"});
    control_t.emit = [](const FigurePoint &p) -> FigureRows {
        const int scale = p.integer("scale");
        const double sp = p.number("sparsity");

        CanonConfig cfg;
        cfg.rows = 8;
        cfg.cols = 8 * scale;
        CanonRunner runner(cfg);
        const std::int64_t n = cfg.cols * kSimdWidth;

        // Deep M so fill/drain fractions do not masquerade as a
        // scale effect.
        const auto prof =
            runner.run({"spmm", Workload::Spmm, 256, 256, n, sp},
                       900 + scale * 10 +
                           static_cast<std::uint64_t>(sp * 10));
        return {{std::to_string(scale) + "x",
                 std::to_string(cfg.numPes()), Table::fmt(sp, 2),
                 Table::fmt(prof.utilization(static_cast<std::uint64_t>(
                                cfg.numPes() * kSimdWidth)),
                            3)}};
    };
    control_t.note =
        "Expected shape: in the control table, utilization is flat in "
        "scale at\nfixed sparsity (fixed arithmetic intensity); in the "
        "main table it tracks\narithmetic intensity, not array size.";
    bench.add(std::move(control_t));
    return bench;
}

FigureBench
figure16Bench()
{
    FigureBench bench("bench_fig16_bandwidth");

    // Schedule: dense-stationary tiling (Section 6.4) -- B resident
    // in whatever SRAM fits, the sparse A re-streamed once per B
    // tile, C written back once. Compute time comes from utilization
    // measured on the cycle simulator at each sparsity. Workload:
    // SpMM with B of 1024x1024 INT8 (1 MB) so that only the largest
    // SRAM holds it whole; M chosen for a deep stream.
    static const std::vector<double> sram_kb = {72, 144, 288, 576,
                                                1152};

    FigureTable t;
    t.title = "Figure 16: required bandwidth (GB/s) to hit the compute "
              "roofline";
    t.header = {"Sparsity", "AI(ops/B)"};
    for (double s : sram_kb)
        t.header.push_back("SRAM=" + Table::fmt(s, 0) + "KB");
    t.csvName = "fig16_bandwidth.csv";
    t.grid.axis("sparsity", {"0.05", "0.2", "0.35", "0.5", "0.65",
                             "0.8", "0.9", "0.95"});
    t.emit = [](const FigurePoint &p) -> FigureRows {
        const double sp = p.number("sparsity");
        const auto cfg = CanonConfig::paper();
        CanonRunner runner(cfg);
        const std::int64_t m = 4096, k = 1024, n = 1024;

        // Measure utilization on a proxy simulation at this sparsity.
        const auto prof = runner.run(
            {"spmm", Workload::Spmm, 256, k, cfg.cols * kSimdWidth, sp},
            77);
        const double util =
            std::max(prof.utilization(static_cast<std::uint64_t>(
                         cfg.numPes() * kSimdWidth)),
                     0.05);

        const double nnz = static_cast<double>(m) * k * (1.0 - sp);
        const double ops = 2.0 * nnz * n; // mul + add per MAC
        const double compute_cycles =
            ops / (2.0 * cfg.numMacs() * util);
        const double seconds = compute_cycles / (cfg.clockGhz * 1e9);

        std::vector<std::string> row = {Table::fmt(sp, 2), ""};
        bool ai_set = false;
        for (double s : sram_kb) {
            const double b_bytes = static_cast<double>(k) * n;
            const double passes = std::ceil(b_bytes / (s * 1024.0));
            // B once, A (3 B/nnz) re-streamed per pass, C out (4 B).
            const double traffic = b_bytes + passes * nnz * 3.0 +
                                   static_cast<double>(m) * n * 4.0;
            if (!ai_set) {
                row[1] = Table::fmt(ops / traffic, 0);
                ai_set = true; // report AI at the smallest SRAM
            }
            row.push_back(Table::fmt(traffic / seconds / 1e9, 1));
        }
        return {std::move(row)};
    };
    t.note = "Reference devices: LPDDR5X 16x = 17 GB/s (design point "
             "B, Table 1);\nLPDDR5X 32x = 34 GB/s (design point A). "
             "Larger SRAM flattens the curve\n(design point C at high "
             "arithmetic intensity).";
    bench.add(std::move(t));
    return bench;
}

FigureBench
figure17Bench()
{
    FigureBench bench("bench_fig17_scratchpad");

    // Impact of scratchpad depth {1,4,8,16,32,64} on compute
    // utilization across sparsity ranges. The paper's shape: deeper
    // buffers help at >=60 % sparsity (10-20 % utilization over the
    // single-register baseline around depth 16), while very deep
    // buffers stop paying.
    static const std::vector<int> depths = {1, 4, 8, 16, 32, 64};

    FigureTable t;
    t.title = "Figure 17: compute utilization vs scratchpad depth";
    t.header = {"Sparsity"};
    for (int d : depths)
        t.header.push_back("depth=" + std::to_string(d));
    t.csvName = "fig17_scratchpad.csv";
    t.grid.axis("sparsity", {"0.05", "0.15", "0.25", "0.35", "0.45",
                             "0.55", "0.65", "0.75", "0.85"});
    t.emit = [](const FigurePoint &p) -> FigureRows {
        const double sp = p.number("sparsity");
        std::vector<std::string> row = {Table::fmt(sp, 2)};
        for (int d : depths) {
            CanonConfig cfg;
            cfg.spadEntries = d;
            const auto prof = CanonRunner(cfg).run(
                {"spmm", Workload::Spmm, 512, 256,
                 cfg.cols * kSimdWidth, sp},
                static_cast<std::uint64_t>(sp * 100) + 7);
            row.push_back(Table::fmt(
                prof.utilization(cfg.numPes() * kSimdWidth), 3));
        }
        return {std::move(row)};
    };
    bench.add(std::move(t));
    return bench;
}

} // namespace bench
} // namespace canon
