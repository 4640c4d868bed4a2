/**
 * @file
 * The cross-architecture comparison figures: Figure 12 (normalized
 * performance across the twelve workload classes), Figure 13
 * (normalized perf/W over the same matrix), and Figure 14 (EDP on
 * real ML models). "X" marks architectures that cannot run a
 * workload, exactly as in the paper.
 *
 * Qualitative shapes to check against the paper: near-parity on GEMM
 * with systolic collapse under sparsity and Canon ahead on window
 * attention (Fig. 12); the systolic array leading on pure dense GEMM
 * perf/W, Canon's generality tax (Fig. 13); minimal fragility across
 * kernel *mixtures* (Fig. 14, lower EDP is better, log scale in the
 * paper).
 */

#include "figures.hh"

#include "bench_util.hh"

namespace canon
{
namespace bench
{

namespace
{

/** One Figure 12/13 row: build the case, render one cell per arch. */
FigureRows
workloadMatrixRow(std::size_t case_index, bool perf_per_watt)
{
    const ArchSuite suite;
    const WorkloadCase c = figure12Case(case_index, suite);
    const EnergyModel energy;
    // Both >1 where the baseline is better: cycles(canon) /
    // cycles(arch), or for perf/W (same work) energy(canon) /
    // energy(arch).
    return {normalizedRow(
        c.label, c.results,
        [&](const ExecutionProfile &p, const ExecutionProfile &canon) {
            return perf_per_watt
                       ? energy.evaluate(canon).totalJoules() /
                             energy.evaluate(p).totalJoules()
                       : static_cast<double>(canon.cycles) /
                             static_cast<double>(p.cycles);
        })};
}

std::vector<std::string>
archHeader(const char *first)
{
    std::vector<std::string> header = {first};
    for (const Arch a : kFigureArchs)
        header.push_back(archLabel(a));
    return header;
}

} // namespace

FigureBench
figure12Bench()
{
    FigureBench bench("bench_fig12_performance");

    FigureTable t;
    t.title = "Figure 12: normalized performance (baseline / Canon; "
              "X = cannot run)";
    t.header = archHeader("Workload");
    t.csvName = "fig12_performance.csv";
    t.grid.axis("workload", figure12Labels());
    t.emit = [](const FigurePoint &p) {
        return workloadMatrixRow(p.digits[0], false);
    };
    bench.add(std::move(t));
    return bench;
}

FigureBench
figure13Bench()
{
    FigureBench bench("bench_fig13_perfwatt");

    FigureTable t;
    t.title = "Figure 13: normalized perf/W (baseline / Canon; X = "
              "cannot run)";
    t.header = archHeader("Workload");
    t.csvName = "fig13_perfwatt.csv";
    t.grid.axis("workload", figure12Labels());
    t.emit = [](const FigurePoint &p) {
        return workloadMatrixRow(p.digits[0], true);
    };
    bench.add(std::move(t));
    return bench;
}

FigureBench
figure14Bench()
{
    FigureBench bench("bench_fig14_edp");

    // The Figure 14 model specs in paper order; the seed follows the
    // original serial loop (300, 310, ...), keyed to the grid index
    // so any worker count and shard reproduces it.
    static const std::vector<ModelSpec> models = {
        resnet50Conv(0.5),   llama8bMlp(0.0),  llama8bMlp(0.7),
        llama8bAttn(0.7),    mistral7bMlp(0.0), mistral7bMlp(0.7),
        mistral7bAttn(),     longformerAttn(),
    };

    std::vector<std::string> names;
    for (const auto &spec : models)
        names.push_back(spec.name);

    FigureTable t;
    t.title = "Figure 14: EDP normalized to Canon (lower is better; "
              "X = cannot run)";
    t.header = archHeader("Model");
    t.csvName = "fig14_edp.csv";
    t.grid.axis("model", names);
    t.emit = [](const FigurePoint &p) -> FigureRows {
        const ModelSpec &spec = models[p.digits[0]];
        const std::uint64_t seed = 300 + 10 * p.digits[0];

        const EnergyModel energy;
        return {normalizedRow(
            spec.name, ArchSuite().model(spec, seed),
            [&](const ExecutionProfile &p, const ExecutionProfile &canon) {
                return energy.evaluate(p).edp() /
                       energy.evaluate(canon).edp();
            })};
    };
    bench.add(std::move(t));
    return bench;
}

} // namespace bench
} // namespace canon
