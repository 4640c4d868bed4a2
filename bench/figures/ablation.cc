/**
 * @file
 * The Section 5/6.5 ablations. Both tables carry cross-row state --
 * adaptive-spad averages its per-range gains into a final row, and
 * row-reorder draws every input from one shared RNG stream -- so each
 * is declared as a whole-table job (an axis-free grid): the rows stay
 * together on one worker and the output cannot be split mid-table by
 * a shard boundary.
 */

#include "figures.hh"

#include <utility>

#include "baselines/zed.hh"
#include "common/table.hh"
#include "sparse/generate.hh"
#include "sparse/preprocess.hh"
#include "sparse/reference.hh"
#include "workloads/arch.hh"
#include "workloads/canon_runner.hh"

namespace canon
{
namespace bench
{

namespace
{

Cycle
spadRunAtDepth(double sparsity, int depth, std::uint64_t seed)
{
    CanonConfig cfg;
    cfg.spadEntries = depth;
    return CanonRunner(cfg)
        .run({"spmm", Workload::Spmm, 512, 256, cfg.cols * kSimdWidth,
              sparsity},
             seed)
        .cycles;
}

std::uint64_t
reorderZedCycles(const CsrMatrix &a, int n)
{
    return ZedModel{}.spmm(a, n).cycles;
}

std::string
gainCell(std::uint64_t natural, std::uint64_t balanced)
{
    return Table::fmt((1.0 - static_cast<double>(balanced) /
                                 static_cast<double>(natural)) *
                          100.0,
                      1) +
           "%";
}

} // namespace

FigureBench
adaptiveSpadBench()
{
    FigureBench bench("bench_ablation_adaptive_spad");

    // Section 6.5: "By incorporating compile-time knowledge about the
    // expected sparsity range (S1, S2, S3), Canon achieves an
    // additional ~5% performance improvement on average by adjusting
    // the effective scratchpad range" -- the effective buffer depth
    // is software-managed through the orchestrator FSM even though
    // the physical scratchpad is fixed. We compare the conservative
    // fixed depth (16, used when nothing is known about the input)
    // against the best depth per sparsity range.
    FigureTable t;
    t.title = "Section 6.5: sparsity-aware effective scratchpad depth";
    t.header = {"Range", "Sparsity", "Fixed-16 cycles", "Best depth",
                "Tuned cycles", "Gain"};
    t.csvName = "ablation_adaptive_spad.csv";
    t.emit = [](const FigurePoint &) -> FigureRows {
        const std::vector<int> candidate_depths = {2, 4, 8, 16, 32, 64};

        FigureRows rows;
        double total_gain = 0.0;
        int cases = 0;
        for (auto [range, sp] :
             {std::pair{"S1", 0.15}, {"S2", 0.45}, {"S3", 0.80},
              std::pair{"S3", 0.92}}) {
            const std::uint64_t seed = 400 + cases;
            const auto fixed = spadRunAtDepth(sp, 16, seed);
            Cycle best = fixed;
            int best_depth = 16;
            for (int d : candidate_depths) {
                // Depth 16 is the Fixed-16 run itself: only a strictly
                // better depth replaces it.
                if (d == 16)
                    continue;
                const auto c = spadRunAtDepth(sp, d, seed);
                if (c < best) {
                    best = c;
                    best_depth = d;
                }
            }
            const double gain = (static_cast<double>(fixed) -
                                 static_cast<double>(best)) /
                                static_cast<double>(fixed);
            total_gain += gain;
            ++cases;
            rows.push_back({range, Table::fmt(sp, 2),
                            Table::fmtInt(fixed),
                            std::to_string(best_depth),
                            Table::fmtInt(best),
                            Table::fmt(gain * 100.0, 1) + "%"});
        }
        rows.push_back({"avg", "-", "-", "-", "-",
                        Table::fmt(total_gain / cases * 100.0, 1) +
                            "% (paper: ~5%)"});
        return rows;
    };
    bench.add(std::move(t));
    return bench;
}

FigureBench
rowReorderBench()
{
    FigureBench bench("bench_ablation_row_reorder");

    // Section 5 excludes ZeD's row-reordering preprocessing from the
    // comparison "as the same can be applied to Canon"; this bench
    // applies it to both and quantifies it: balanced (snake) row
    // order vs the natural order on skewed inputs.
    FigureTable t;
    t.title = "Row-reorganization preprocessing (Section 5 note)";
    t.header = {"Input", "Arch", "Natural order", "Balanced order",
                "Gain"};
    t.csvName = "ablation_row_reorder.csv";
    t.emit = [](const FigurePoint &) -> FigureRows {
        const auto cfg = CanonConfig::paper();
        const CanonRunner canon(cfg);
        Rng rng(11); // one stream across both inputs, as in the paper

        FigureRows rows;
        for (auto [label, a] :
             {std::pair<const char *, CsrMatrix>{
                  "bimodal 0.55/0.95",
                  randomSparseBimodal(512, 256, 0.55, 0.95, rng)},
              {"uniform 0.75", randomSparse(512, 256, 0.75, rng)}}) {
            const auto perm = balancedRowOrder(a);
            const auto a_bal = permuteRows(a, perm);
            const auto b = randomDense(256, cfg.cols * kSimdWidth, rng);

            // Sanity: permuted execution yields the permuted result.
            // The check reads the product, so this run builds its own
            // fabric and keeps every column.
            CanonFabric balanced(cfg);
            balanced.load(mapSpmm(a_bal, b, cfg));
            const auto c_bal = balanced.run();
            fatalIf(perm.unpermute(balanced.result()) !=
                        reference::spmm(a, b),
                    "row reorder changed the result");
            const auto c_nat = canon.spmmExact(a, b).cycles;
            rows.push_back({label, archLabel(Arch::Canon),
                            Table::fmtInt(c_nat), Table::fmtInt(c_bal),
                            gainCell(c_nat, c_bal)});

            const auto z_nat =
                reorderZedCycles(a, cfg.cols * kSimdWidth);
            const auto z_bal =
                reorderZedCycles(a_bal, cfg.cols * kSimdWidth);
            rows.push_back({label, archLabel(Arch::Zed),
                            Table::fmtInt(z_nat), Table::fmtInt(z_bal),
                            gainCell(z_nat, z_bal)});

            // Where reordering actually matters: row-granular
            // scheduling *without* work stealing.
            ZedConfig no_steal;
            no_steal.workStealing = false;
            ZedModel fixed(no_steal);
            const auto f_nat =
                fixed.spmm(a, cfg.cols * kSimdWidth).cycles;
            const auto f_bal =
                fixed.spmm(a_bal, cfg.cols * kSimdWidth).cycles;
            rows.push_back({label, "ZeD(no steal)",
                            Table::fmtInt(f_nat), Table::fmtInt(f_bal),
                            gainCell(f_nat, f_bal)});
        }
        return rows;
    };
    t.note = "Takeaway: Canon's K-sliced Gustavson dataflow spreads "
             "every output row\nacross all orchestrators, so row "
             "order barely matters -- the insensitivity\nthe paper "
             "banks on when it drops ZeD's preprocessing from the "
             "comparison.\nRow order only matters for row-granular "
             "scheduling without stealing.";
    bench.add(std::move(t));
    return bench;
}

} // namespace bench
} // namespace canon
