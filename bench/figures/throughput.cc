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
 * hosts -- only the table structure is. The bench is therefore marked
 * wallClock(): it defaults to --jobs 1, because timing rows that share
 * the machine contend and undercount, and it refuses --cache-dir,
 * because a cached row would replay an old measurement. Raise --jobs
 * only to smoke-test the harness.
 *
 * Every case also times a fixed calibration kernel immediately before
 * and after itself (the Calib(ms) column, their mean). On a shared
 * host the kernel slows down and speeds up with the case next to it,
 * so Rate x Calib -- work per kernel run -- is far steadier than the
 * rate alone; scripts/perf_snapshot.py gates each case on it.
 */

#include "figures.hh"

#include <chrono>
#include <cstdint>
#include <vector>

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

/**
 * Wall seconds of the calibration kernel: a toy cycle loop shaped like
 * the simulator's (a ring of cells, each with a small FIFO; every
 * cycle each cell pops a value, folds it into an accumulator and
 * pushes to a neighbour). It does not depend on the simulator, so a
 * change to the simulator cannot move it.
 */
double
calibrationSeconds()
{
    constexpr int kCells = 1024;
    constexpr int kCycles = 3000;
    struct Cell
    {
        std::uint32_t fifo[8] = {};
        std::uint32_t head = 0, tail = 0, acc = 1, busy = 0;
    };
    std::vector<Cell> cells(kCells);
    std::uint32_t x = 12345;
    const auto start = std::chrono::steady_clock::now();
    for (int c = 0; c < kCycles; ++c) {
        for (int i = 0; i < kCells; ++i) {
            Cell &a = cells[i];
            Cell &b = cells[(i * 7 + 1) % kCells];
            x = x * 1103515245u + 12345u;
            if (a.tail != a.head) {
                a.acc = a.acc * 31 + a.fifo[a.head++ & 7];
                if ((x >> 16) & 1)
                    ++a.busy;
            }
            if (b.tail - b.head < 8 && (x & 3))
                b.fifo[b.tail++ & 7] = a.acc ^ x;
        }
    }
    // Publish the result so the loop cannot be elided.
    static volatile std::uint32_t sink;
    for (const Cell &c : cells)
        sink = sink + c.acc + c.busy;
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

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

/**
 * Simulated cycles per second of one SpMM mapping on a rows x cols
 * fabric under @p flush: an a_rows x a_cols A at @p sparsity, rebuilt,
 * loaded and run @p iterations times.
 */
Measurement
canonThroughput(int rows, int cols, SpadFlushPolicy flush, int a_rows,
                int a_cols, double sparsity, int iterations)
{
    CanonConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.spadFlush = flush;
    Rng rng(1);
    const auto a = randomSparse(a_rows, a_cols, sparsity, rng);
    const auto b = randomDense(a_cols, cfg.cols * kSimdWidth, rng);
    const auto mapping = mapSpmm(a, b, cfg);
    return timeLoop(iterations, "sim-cycles/s", [&]() {
        CanonFabric fabric(cfg);
        fabric.load(mapping);
        return static_cast<double>(fabric.run());
    });
}

// The last four cases do not run the Canon fabric. Their iteration
// counts keep each near 100 ms, since millisecond runs spread by
// 20-50% between runs on a shared host.

Measurement
systolicThroughput(int n, int iterations)
{
    Rng rng(2);
    const auto a = randomDense(n, n, rng);
    const auto b = randomDense(n, n, rng);
    SystolicConfig cfg{8, 8, SparsitySupport::Dense};
    return timeLoop(iterations, "runs/s", [&]() {
        SystolicSim sim(cfg);
        sim.run(a, b);
        return 1.0;
    });
}

Measurement
lutCompileThroughput()
{
    return timeLoop(2000, "compiles/s", [&]() {
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
    return timeLoop(100, "kernel-maps/s", [&]() {
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
    bench.wallClock();

    FigureTable t;
    t.title = "Simulation throughput microbenchmarks";
    // Work/Iter is the deterministic column: simulated cycles (or
    // completed units) per iteration. CI compares it exactly while
    // the wall-clock Rate column only gates large regressions.
    t.header = {"Benchmark", "Iters", "Work/Iter", "Wall(ms)",
                "Rate",      "Unit",  "Calib(ms)"};
    t.csvName = "sim_throughput.csv";
    t.grid.axis("case",
                {"canon-spmm-s10", "canon-spmm-s50", "canon-spmm-s90",
                 "canon-spmm-16x16", "canon-resident-2048",
                 "systolic-16", "systolic-32", "lut-compile",
                 "cgra-mapper"});
    t.emit = [](const FigurePoint &p) -> FigureRows {
        using enum SpadFlushPolicy;
        const double calib_before = calibrationSeconds();
        Measurement m;
        switch (p.digits[0]) {
          case 0:
            m = canonThroughput(8, 8, Eager, 128, 256, 0.10, 8);
            break;
          case 1:
            m = canonThroughput(8, 8, Eager, 128, 256, 0.50, 8);
            break;
          case 2:
            m = canonThroughput(8, 8, Eager, 128, 256, 0.90, 8);
            break;
          case 3:
            // The scaling case: 4x the components of the paper
            // fabric, the shape the tick-schedule work is sized
            // against.
            m = canonThroughput(16, 16, Eager, 256, 256, 0.5, 4);
            break;
          case 4:
            // The resident-row scaling point: 2048 in-flight output
            // rows under --spad-flush adaptive, the regime the lifted
            // proxy cap (kMinProxyRowsAdaptive) runs in. Work/Iter
            // pins the flattened cost curve: a drift here means the
            // adaptive policy's cycle behaviour changed.
            m = canonThroughput(16, 16, Adaptive, 2048, 128, 0.7, 4);
            break;
          case 5:
            m = systolicThroughput(16, 4000);
            break;
          case 6:
            m = systolicThroughput(32, 600);
            break;
          case 7:
            m = lutCompileThroughput();
            break;
          default:
            m = cgraMapperThroughput();
            break;
        }
        const double calib =
            0.5 * (calib_before + calibrationSeconds());
        const double rate =
            m.seconds > 0.0 ? m.work / m.seconds : 0.0;
        const double work_per_iter =
            m.iterations > 0 ? m.work / m.iterations : 0.0;
        return {{p.value("case"), std::to_string(m.iterations),
                 Table::fmtInt(
                     static_cast<std::uint64_t>(work_per_iter)),
                 Table::fmt(m.seconds * 1e3, 2),
                 Table::fmtInt(static_cast<std::uint64_t>(rate)),
                 m.unit, Table::fmt(calib * 1e3, 3)}};
    };
    t.note = "Rates are wall-clock measurements; Calib(ms) times a "
             "fixed kernel next to each\ncase, and Rate x Calib is "
             "what compares across runs and hosts. Run with the\n"
             "default --jobs 1 for honest numbers.";
    bench.add(std::move(t));
    return bench;
}

} // namespace bench
} // namespace canon
