/**
 * @file
 * Measure the per-resident-row cycle cost curve that justifies the
 * proxy-row caps (kMinProxyRows / kMinProxyRowsAdaptive /
 * proxyRowCap) in the CanonRunner scaling model.
 *
 * For 16x16 and 32x32 fabrics, this simulates the proxy that
 * CanonRunner::run would draw for a large synthetic SpMM if its row
 * cap were R, for R = 256..4096, under both scratchpad flush policies
 * (--spad-flush eager | adaptive): from Rng(42), an R x 128 A at 70%
 * sparsity, then a dense 128 x (cols x 4) B, run through
 * CanonRunner::spmmExact. A Collector from the obs layer is installed
 * around each run: FabricRunObs records the raw simulated cycles of
 * the proxy, which is what the per-row cost is defined over. The flat
 * stats of the same observation give the scratchpad cap-pressure
 * share that explains the shape of each curve.
 *
 * Output: an aligned table on stdout and resident_rows.csv in the
 * CWD (consumed by docs/resident_rows.md).
 */

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>

#include "obs/collector.hh"
#include "workloads/canon_runner.hh"

namespace
{

struct Measurement
{
    int fabric = 0;        // rows == cols
    int residentRows = 0;  // simulated output rows (the cap)
    std::uint64_t cycles = 0; // raw proxy cycles (unscaled)
    double perRow = 0.0;
    double spadCapPct = 0.0; // % of orch-cycles at resident cap
};

Measurement
measure(int fabric, int resident_rows, canon::SpadFlushPolicy flush)
{
    canon::CanonConfig cfg;
    cfg.rows = fabric;
    cfg.cols = fabric;
    cfg.spadFlush = flush;

    // What run() simulates for an M far beyond every cap: R rows of
    // the full K = 128 (so row-slice populations are authentic) and
    // one column pass, drawn A then B from one Rng(seed).
    const int k = 128;
    canon::Rng rng(42);
    const auto a = canon::randomSparse(resident_rows, k, 0.7, rng);
    const auto b = canon::randomDense(k, fabric * canon::kSimdWidth, rng);

    canon::obs::ObsOptions obs_opt;
    obs_opt.statsJsonOut = "(memory)"; // enables flat-stats capture;
                                       // nothing is written to disk
    canon::obs::Collector col(obs_opt);
    std::shared_ptr<const canon::obs::ScenarioObs> seen;
    {
        canon::obs::ScopedCollector scope(col);
        (void)canon::CanonRunner(cfg).spmmExact(a, b);
        seen = col.finish();
    }

    Measurement out;
    out.fabric = fabric;
    out.residentRows = resident_rows;
    if (seen->runs.empty()) {
        std::cerr << "resident_rows: no observed fabric run\n";
        std::exit(1);
    }
    const auto &run = seen->runs.front();
    out.cycles = run.cycles;
    out.perRow = static_cast<double>(run.cycles) / resident_rows;

    // Sum spadCapCycles over every orchestrator; the denominator is
    // one orchestrator-cycle per fabric row per simulated cycle.
    std::uint64_t cap_cycles = 0;
    for (const auto &[path, value] : run.flat)
        if (path.size() > 13 &&
            path.compare(path.size() - 13, 13, "spadCapCycles") == 0)
            cap_cycles += value;
    out.spadCapPct = 100.0 * static_cast<double>(cap_cycles) /
                     (static_cast<double>(run.cycles) * fabric);
    return out;
}

} // namespace

int
main()
{
    const int fabrics[] = {16, 32};
    const int caps[] = {256, 512, 1024, 2048, 4096};
    const canon::SpadFlushPolicy policies[] = {
        canon::SpadFlushPolicy::Eager,
        canon::SpadFlushPolicy::Adaptive};

    std::ofstream csv("resident_rows.csv");
    csv << "flush,fabric,resident_rows,cycles,cycles_per_row,"
           "spad_cap_pct\n";

    std::cout << std::setw(10) << "flush" << std::setw(8) << "fabric"
              << std::setw(10) << "rows" << std::setw(12) << "cycles"
              << std::setw(12) << "cyc/row" << std::setw(12)
              << "spadCap%" << "\n";
    for (auto flush : policies) {
        for (int fabric : fabrics) {
            for (int cap : caps) {
                const auto m = measure(fabric, cap, flush);
                std::cout << std::setw(10)
                          << canon::spadFlushName(flush)
                          << std::setw(8) << m.fabric << std::setw(10)
                          << m.residentRows << std::setw(12)
                          << m.cycles << std::setw(12) << std::fixed
                          << std::setprecision(2) << m.perRow
                          << std::setw(12) << std::setprecision(1)
                          << m.spadCapPct << "\n";
                csv << canon::spadFlushName(flush) << ',' << m.fabric
                    << ',' << m.residentRows << ',' << m.cycles << ','
                    << std::fixed << std::setprecision(4) << m.perRow
                    << ',' << std::setprecision(2) << m.spadCapPct
                    << '\n';
            }
        }
    }
    std::cout << "\nwrote resident_rows.csv\n";
    return 0;
}
