/**
 * @file
 * Figure 11: runtime power breakdown of Canon's PEs (averaged) for
 * GEMM and sparse CNN/attention workloads at the S1/S2/S3 sparsity
 * ranges, plus the data-driven FSM state-transition counts per range.
 *
 * Workloads mirror the paper's labels: ResNet50-* are
 * activation-sparse conv GEMMs (SpMM), Attention-* are unstructured
 * sparse attention scores (SDDMM). The systolic-array GEMM bar is the
 * reference on the left of the figure.
 */

#include "figures.hh"

#include "baselines/systolic.hh"
#include "common/table.hh"
#include "power/energy.hh"
#include "workloads/canon_runner.hh"

namespace canon
{
namespace bench
{

namespace
{

constexpr double kS1 = 0.15, kS2 = 0.45, kS3 = 0.80;

/** The activation-sparse ResNet-50 conv layer (an im2col SpMM). */
LayerSpec
resnetLayer(double sparsity)
{
    return {"resnet50", Workload::Spmm, 784, 1152, 128, sparsity};
}

/** The unstructured sparse attention-score layer (an SDDMM). */
LayerSpec
attentionLayer(double sparsity)
{
    return {"attention", Workload::Sddmm, 512, 64, 512, sparsity};
}

/** The profile behind one power-breakdown row. */
ExecutionProfile
figure11Profile(std::size_t row)
{
    const auto cfg = CanonConfig::paper();
    if (row == 0) {
        SystolicModel sys(SystolicConfig{});
        return sys.gemm(784, 1152, 128);
    }
    CanonRunner runner(cfg);
    switch (row) {
      case 1:
        return runner.run({"gemm", Workload::Gemm, 784, 1152, 128}, 1);
      case 2:
        return runner.run(resnetLayer(kS1), 2);
      case 3:
        return runner.run(attentionLayer(kS1), 3);
      case 4:
        return runner.run(resnetLayer(kS2), 4);
      case 5:
        return runner.run(attentionLayer(kS2), 5);
      case 6:
        return runner.run(resnetLayer(kS3), 6);
      default:
        return runner.run(attentionLayer(kS3), 7);
    }
}

} // namespace

FigureBench
figure11Bench()
{
    FigureBench bench("bench_fig11_power");

    FigureTable power_t;
    power_t.title = "Figure 11: runtime power breakdown of Canon's PEs "
                    "(mW per PE, averaged)";
    power_t.header = {"Workload", "DataMem", "Spad-Read", "Spad-Write",
                      "Compute", "Ctrl&Routing", "Total/PE"};
    power_t.csvName = "fig11_power.csv";
    power_t.grid.axis("workload",
                      {"Systolic GEMM (ref)", "Canon GEMM",
                       "Resnet50-S1", "Attention-S1", "Resnet50-S2",
                       "Attention-S2", "Resnet50-S3", "Attention-S3"});
    power_t.emit = [](const FigurePoint &p) -> FigureRows {
        const EnergyModel energy;
        const ExecutionProfile profile = figure11Profile(p.digits[0]);
        const auto r = energy.evaluate(profile);
        const double pes =
            profile.peCount ? static_cast<double>(profile.peCount)
                            : 64.0;
        auto mw = [&](EnergyCategory cat) {
            return Table::fmt(
                r.category(cat) / static_cast<double>(r.cycles) / pes,
                3);
        };
        const double total_mw =
            r.totalPj / static_cast<double>(r.cycles) / pes;
        return {{p.value("workload"), mw(EnergyCategory::DataMem),
                 mw(EnergyCategory::SpadRead),
                 mw(EnergyCategory::SpadWrite),
                 mw(EnergyCategory::Compute),
                 mw(EnergyCategory::ControlRouting),
                 Table::fmt(total_mw, 3)}};
    };
    bench.add(std::move(power_t));

    // FSM state transitions per sparsity range (paper: S1 1.94e7,
    // S2 3.29e7, S3 9.77e7 across its full workload set). Absolute
    // counts depend on the workload set's size, so we also report
    // transitions normalized per million useful lane-MACs -- the
    // data-driven decision *rate*, which is what grows with
    // irregularity.
    FigureTable fsm_t;
    fsm_t.title = "Figure 11 (right): data-driven FSM state transitions";
    fsm_t.header = {"Sparsity range", "Transitions", "Per 1M lane-MACs",
                    "Paper (absolute)"};
    fsm_t.csvName = "fig11_transitions.csv";
    fsm_t.grid.axis("range", {"S1", "S2", "S3"});
    fsm_t.emit = [](const FigurePoint &p) -> FigureRows {
        static const struct
        {
            const char *label;
            double sparsity;
            std::uint64_t seed;
            const char *paper;
        } ranges[] = {{"S1 (0-30%)", kS1, 20, "1.94e7"},
                      {"S2 (30-60%)", kS2, 22, "3.29e7"},
                      {"S3 (60-95%)", kS3, 24, "9.77e7"}};
        const auto &range = ranges[p.digits[0]];

        CanonRunner runner(CanonConfig::paper());
        const auto a = runner.run(resnetLayer(range.sparsity), range.seed);
        const auto b =
            runner.run(attentionLayer(range.sparsity), range.seed + 1);
        const auto trans = a.get(Activity::StateTransitions) +
                           b.get(Activity::StateTransitions);
        const auto macs =
            a.get(Activity::LaneMacs) + b.get(Activity::LaneMacs);
        return {{range.label, Table::fmtInt(trans),
                 Table::fmtInt(trans * 1'000'000 / macs),
                 range.paper}};
    };
    bench.add(std::move(fsm_t));
    return bench;
}

} // namespace bench
} // namespace canon
