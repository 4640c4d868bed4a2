/**
 * @file
 * Microbenchmarks of the simulator itself: cycle throughput of the
 * Canon fabric, the orchestrator's LUT path, the systolic reference
 * simulator, and the CGRA mapper. Useful for keeping the cycle-level
 * substrate fast enough for the figure benches (the ROADMAP's
 * hot-path item).
 *
 * Unlike the figure benches, the cell values here are wall-clock
 * rates, so they are *not* reproducible byte-for-byte across runs or
 * hosts -- only the table structure is. The binary therefore defaults
 * to --jobs 1: timing rows that share the machine contend and
 * undercount. Raise --jobs only to smoke-test the harness.
 */

#include "figures.hh"

#include <chrono>

#include "baselines/cgra.hh"
#include "baselines/systolic.hh"
#include "common/table.hh"
#include "core/fabric.hh"
#include "kernels/spmm.hh"
#include "sparse/generate.hh"
#include "workloads/polybench.hh"

namespace canon
{
namespace bench
{

namespace
{

struct Measurement
{
    int iterations = 0;
    double seconds = 0.0;
    double work = 0.0; //!< work units completed (for the rate column)
    const char *unit = "";
};

template <typename Fn>
Measurement
timeLoop(int iterations, const char *unit, Fn &&step)
{
    Measurement m;
    m.iterations = iterations;
    m.unit = unit;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i)
        m.work += step();
    const auto stop = std::chrono::steady_clock::now();
    m.seconds =
        std::chrono::duration<double>(stop - start).count();
    return m;
}

Measurement
canonSpmmThroughput(double sparsity)
{
    CanonConfig cfg;
    Rng rng(1);
    const auto a = randomSparse(128, 256, sparsity, rng);
    const auto b = randomDense(256, cfg.cols * kSimdWidth, rng);
    const auto mapping = mapSpmm(CsrMatrix::fromDense(a), b, cfg);
    return timeLoop(8, "sim-cycles/s", [&]() {
        CanonFabric fabric(cfg);
        fabric.load(mapping);
        return static_cast<double>(fabric.run());
    });
}

Measurement
canonSpmm16x16Throughput()
{
    // The scaling case: 4x the components of the paper fabric, the
    // shape the tick-schedule work is sized against.
    CanonConfig cfg;
    cfg.rows = 16;
    cfg.cols = 16;
    Rng rng(1);
    const auto a = randomSparse(256, 256, 0.5, rng);
    const auto b = randomDense(256, cfg.cols * kSimdWidth, rng);
    const auto mapping = mapSpmm(CsrMatrix::fromDense(a), b, cfg);
    return timeLoop(4, "sim-cycles/s", [&]() {
        CanonFabric fabric(cfg);
        fabric.load(mapping);
        return static_cast<double>(fabric.run());
    });
}

Measurement
canonResident2048Throughput()
{
    // The resident-row scaling point: 2048 in-flight output rows on
    // a 16x16 fabric under --spad-flush adaptive, the regime the
    // lifted proxy cap (kMinProxyRowsAdaptive) runs in. Work/Iter
    // pins the flattened cost curve: a drift here means the adaptive
    // policy's cycle behaviour changed.
    CanonConfig cfg;
    cfg.rows = 16;
    cfg.cols = 16;
    cfg.spadFlush = SpadFlushPolicy::Adaptive;
    Rng rng(1);
    const auto a = randomSparse(2048, 128, 0.7, rng);
    const auto b = randomDense(128, cfg.cols * kSimdWidth, rng);
    const auto mapping = mapSpmm(CsrMatrix::fromDense(a), b, cfg);
    return timeLoop(4, "sim-cycles/s", [&]() {
        CanonFabric fabric(cfg);
        fabric.load(mapping);
        return static_cast<double>(fabric.run());
    });
}

Measurement
systolicThroughput(int n)
{
    Rng rng(2);
    const auto a = randomDense(n, n, rng);
    const auto b = randomDense(n, n, rng);
    SystolicConfig cfg{8, 8, SparsitySupport::Dense};
    return timeLoop(100, "runs/s", [&]() {
        SystolicSim sim(cfg);
        sim.run(a, b);
        return 1.0;
    });
}

Measurement
lutCompileThroughput()
{
    return timeLoop(50, "compiles/s", [&]() {
        auto prog = buildSpmmProgram();
        // Touch the LUT so the build cannot be elided.
        (void)prog->lut().lookup(0);
        return 1.0;
    });
}

Measurement
cgraMapperThroughput()
{
    const auto suite = polybenchSuite();
    CgraMapper mapper;
    return timeLoop(10, "kernel-maps/s", [&]() {
        double mapped = 0.0;
        for (const auto &k : suite) {
            (void)mapper.map(k.body, k.recMii);
            mapped += 1.0;
        }
        return mapped;
    });
}

} // namespace

FigureBench
simThroughputBench()
{
    FigureBench bench("bench_sim_throughput");
    bench.defaultJobs(1); // timing rows must not contend by default

    FigureTable t;
    t.title = "Simulation throughput microbenchmarks";
    // Work/Iter is the deterministic column: simulated cycles (or
    // completed units) per iteration. CI compares it exactly while
    // the wall-clock Rate column only gates large regressions.
    t.header = {"Benchmark", "Iters", "Work/Iter",
                "Wall(ms)",  "Rate",  "Unit"};
    t.csvName = "sim_throughput.csv";
    t.grid.axis("case",
                {"canon-spmm-s10", "canon-spmm-s50", "canon-spmm-s90",
                 "canon-spmm-16x16", "canon-resident-2048",
                 "systolic-16", "systolic-32", "lut-compile",
                 "cgra-mapper"});
    t.emit = [](const FigurePoint &p) -> FigureRows {
        Measurement m;
        switch (p.digits[0]) {
          case 0:
            m = canonSpmmThroughput(0.10);
            break;
          case 1:
            m = canonSpmmThroughput(0.50);
            break;
          case 2:
            m = canonSpmmThroughput(0.90);
            break;
          case 3:
            m = canonSpmm16x16Throughput();
            break;
          case 4:
            m = canonResident2048Throughput();
            break;
          case 5:
            m = systolicThroughput(16);
            break;
          case 6:
            m = systolicThroughput(32);
            break;
          case 7:
            m = lutCompileThroughput();
            break;
          default:
            m = cgraMapperThroughput();
            break;
        }
        const double rate =
            m.seconds > 0.0 ? m.work / m.seconds : 0.0;
        const double work_per_iter =
            m.iterations > 0 ? m.work / m.iterations : 0.0;
        return {{p.value("case"), std::to_string(m.iterations),
                 Table::fmtInt(
                     static_cast<std::uint64_t>(work_per_iter)),
                 Table::fmt(m.seconds * 1e3, 2),
                 Table::fmtInt(static_cast<std::uint64_t>(rate)),
                 m.unit}};
    };
    t.note = "Rates are wall-clock measurements: compare across "
             "commits on one idle\nhost, not across machines. Run "
             "with the default --jobs 1 for honest numbers.";
    bench.add(std::move(t));
    return bench;
}

} // namespace bench
} // namespace canon
