/**
 * @file
 * The analytical figures -- no cycle simulation, just the area and
 * configuration models: Figure 9 (feature ablation as area deltas,
 * paper: +30 % vs systolic, +9 % vs ZeD, -7 % vs CGRA), Figure 10
 * (area breakdowns, paper shares: Canon 58/13/16/5/8 %, systolic
 * 83/17 %), and Table 1 (the evaluated Canon configuration).
 */

#include "figures.hh"

#include <map>

#include "common/table.hh"
#include "core/config.hh"
#include "mem/main_memory.hh"
#include "orch/lut.hh"
#include "power/area.hh"
#include "workloads/arch.hh"

namespace canon
{
namespace bench
{

namespace
{

std::string
areaDelta(double canon_mm2, double base_mm2)
{
    const double d = canon_mm2 / base_mm2 - 1.0;
    return std::string(d >= 0 ? "+" : "")
        .append(Table::fmt(d * 100.0, 1))
        .append("%");
}

/** Breakdown rows (component, mm2, share, paper share) + TOTAL. */
FigureRows
breakdownRows(const AreaBreakdown &b,
              const std::map<std::string, double> &paper)
{
    FigureRows rows;
    for (const auto &[name, mm2] : b.componentsMm2) {
        auto it = paper.find(name);
        rows.push_back({name, Table::fmt(mm2, 4),
                        Table::fmt(b.share(name) * 100.0, 1) + "%",
                        it != paper.end()
                            ? Table::fmt(it->second * 100.0, 0) + "%"
                            : "-"});
    }
    rows.push_back({"TOTAL", Table::fmt(b.total(), 4), "100%", "-"});
    return rows;
}

} // namespace

FigureBench
figure09Bench()
{
    FigureBench bench("bench_fig09_ablation");

    FigureTable t;
    t.title = "Figure 9: Canon's features ablated through its "
              "baselines (area deltas)";
    t.header = {"Baseline", "Features removed (-) / added (+) vs Canon",
                "Baseline mm2", "Canon mm2", "Canon delta",
                "Paper delta"};
    t.csvName = "fig09_ablation.csv";
    // Each baseline, with the features Canon removes (-) or adds (+)
    // relative to it and the paper's area delta.
    static constexpr struct
    {
        Arch arch;
        const char *features;
        const char *paper;
    } baselines[] = {
        {Arch::Systolic,
         "+orchestrators +distributed mem +reconfig NoC +spad", "+30%"},
        {Arch::Zed,
         "-specialized decode -crossbars +orchestrators +distributed mem",
         "+9%"},
        {Arch::Cgra, "-instr mem +orchestrators +distributed mem", "-7%"},
    };
    std::vector<std::string> names;
    for (const auto &b : baselines)
        names.push_back(archLabel(b.arch));
    t.grid.axis("baseline", names);
    t.emit = [](const FigurePoint &p) -> FigureRows {
        const auto &b = baselines[p.digits[0]];
        const AreaModel model;
        const double canon_mm2 = model.canon().total();
        const double base = b.arch == Arch::Systolic ? model.systolic().total()
                            : b.arch == Arch::Zed    ? model.zed().total()
                                                     : model.cgra().total();
        return {{archLabel(b.arch), b.features, Table::fmt(base, 3),
                 Table::fmt(canon_mm2, 3), areaDelta(canon_mm2, base),
                 b.paper}};
    };
    bench.add(std::move(t));
    return bench;
}

FigureBench
figure10Bench()
{
    FigureBench bench("bench_fig10_area");

    // The breakdown tables have data-dependent row sets (the area
    // model's component census), so each is one whole-table job.
    FigureTable canon_t;
    canon_t.title = "Figure 10a: Canon area breakdown (8x8, 4KB/PE)";
    canon_t.header = {"Component", "mm2", "Share", "Paper"};
    canon_t.emit = [](const FigurePoint &) {
        return breakdownRows(AreaModel().canon(), {{"dataMem", 0.58},
                                                   {"spad", 0.13},
                                                   {"compute", 0.16},
                                                   {"routing", 0.05},
                                                   {"control", 0.08}});
    };
    bench.add(std::move(canon_t));

    FigureTable sys_t;
    sys_t.title = "Figure 10b: Systolic array area breakdown";
    sys_t.header = {"Component", "mm2", "Share", "Paper"};
    sys_t.emit = [](const FigurePoint &) {
        return breakdownRows(AreaModel().systolic(),
                             {{"dataMem", 0.83}, {"compute", 0.17}});
    };
    bench.add(std::move(sys_t));

    FigureTable overhead_t;
    overhead_t.title = "Figure 10: overhead for generality";
    overhead_t.header = {"Metric", "Measured", "Paper"};
    overhead_t.csvName = "fig10_area.csv";
    overhead_t.emit = [](const FigurePoint &) -> FigureRows {
        const AreaModel model;
        const double overhead =
            model.canon().total() / model.systolic().total() - 1.0;
        return {{"Canon vs systolic area",
                 std::string("+")
                     .append(Table::fmt(overhead * 100.0, 1))
                     .append("%"),
                 "+30%"}};
    };
    bench.add(std::move(overhead_t));
    return bench;
}

FigureBench
table1Bench()
{
    FigureBench bench("bench_table1_config");

    FigureTable t;
    t.title = "Table 1: Configuration of the evaluated Canon "
              "architecture";
    t.header = {"Component", "Configuration"};
    t.csvName = "table1_config.csv";
    t.grid.axis("component", {"Array", "SRAM", "Scratchpad",
                              "Orchestrator", "Main Memory", "Clock"});
    t.emit = [](const FigurePoint &p) -> FigureRows {
        const auto cfg = CanonConfig::paper();
        switch (p.digits[0]) {
          case 0:
            return {{"Array", std::to_string(cfg.rows) + "x" +
                                  std::to_string(cfg.cols) + " " +
                                  std::to_string(kSimdWidth) +
                                  "-SIMD INT8 array (" +
                                  std::to_string(cfg.numMacs()) +
                                  " MACs)"}};
          case 1:
            return {{"SRAM",
                     std::to_string(cfg.dmemBytesPerPe() / 1024) +
                         "KB per PE; " +
                         std::to_string(cfg.totalSramBytes() / 1024) +
                         "KB overall (incl. orchestrator LUTs)"}};
          case 2:
            return {{"Scratchpad",
                     "dual-port, " + std::to_string(cfg.spadEntries) +
                         " Vec4 entries (" +
                         std::to_string(cfg.spadBytesPerPe()) +
                         " B) per PE"}};
          case 3:
            return {{"Orchestrator",
                     std::to_string(cfg.rows) +
                         " orchestrators, 1 per PE row; " +
                         std::to_string(FsmLut::bitstreamBytes() /
                                        1024) +
                         "KB LUT bitstream each"}};
          case 4:
            return {{"Main Memory",
                     lpddr5x16().name + ", " +
                         Table::fmt(lpddr5x16().bandwidthGBps, 0) +
                         " GB/s"}};
          default:
            return {{"Clock", Table::fmt(cfg.clockGhz, 0) + " GHz"}};
        }
    };
    bench.add(std::move(t));
    return bench;
}

} // namespace bench
} // namespace canon
