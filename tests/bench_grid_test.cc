/**
 * @file
 * Bench-layer tests: FigureSpec grid expansion, FigureBench execution
 * on the worker pool (determinism across --jobs, shard concatenation,
 * whole-table jobs), the shared bench CLI grammar, and the figure
 * registry. The real-figure determinism check runs a converted
 * figure (Figure 16) at several worker counts and shard splits and
 * requires byte-identical CSV recombination.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.hh"
#include "common/logging.hh"
#include "figure_spec.hh"
#include "figures.hh"

namespace canon
{
namespace bench
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

// ---- FigureSpec -------------------------------------------------------

TEST(FigureSpec, NoAxesExpandToOneUnlabeledPoint)
{
    FigureSpec spec;
    EXPECT_EQ(spec.pointCount(), 1u);
    auto points = spec.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].index, 0u);
    EXPECT_EQ(points[0].label, "");
    EXPECT_TRUE(points[0].coords.empty());
}

TEST(FigureSpec, ExpandsLastAxisFastestLikeSweepSpec)
{
    FigureSpec spec;
    spec.axis("size", {"8", "16"}).axis("mode", {"a", "b", "c"});
    EXPECT_EQ(spec.pointCount(), 6u);

    auto points = spec.expand();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].label, "size=8 mode=a");
    EXPECT_EQ(points[1].label, "size=8 mode=b");
    EXPECT_EQ(points[3].label, "size=16 mode=a");
    EXPECT_EQ(points[5].label, "size=16 mode=c");
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].index, i);

    EXPECT_EQ(points[4].value("mode"), "b");
    EXPECT_EQ(points[4].integer("size"), 16);
    EXPECT_DOUBLE_EQ(points[4].number("size"), 16.0);
    EXPECT_EQ(points[4].digits[0], 1u);
    EXPECT_EQ(points[4].digits[1], 1u);
}

TEST(FigureSpec, RejectsBadAxesAndLookups)
{
    FigureSpec spec;
    EXPECT_THROW(spec.axis("empty", {}), FatalError);
    spec.axis("size", {"8"});
    EXPECT_THROW(spec.axis("size", {"16"}), FatalError);

    auto points = spec.expand();
    EXPECT_THROW(points[0].value("missing"), FatalError);
    FigureSpec text;
    text.axis("name", {"alpha"});
    EXPECT_THROW(text.expand()[0].integer("name"), FatalError);
    EXPECT_THROW(text.expand()[0].number("name"), FatalError);
}

// ---- FigureBench on the pool ------------------------------------------

/**
 * A synthetic two-table bench: a gridded table whose emit sleeps
 * *longer* for earlier rows (so out-of-order completion is the norm
 * under threading) and a whole-table (axis-free) second table.
 */
FigureBench
syntheticBench(const std::string &dir)
{
    FigureBench bench("synthetic");

    FigureTable grid_t;
    grid_t.title = "synthetic grid";
    grid_t.header = {"Point", "Product"};
    grid_t.csvName = dir + "grid.csv";
    grid_t.grid.axis("a", {"2", "3", "5"}).axis("b", {"7", "11"});
    grid_t.emit = [](const FigurePoint &p) -> FigureRows {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(6 - p.index));
        return {{p.label,
                 std::to_string(p.integer("a") * p.integer("b"))}};
    };
    bench.add(std::move(grid_t));

    FigureTable whole_t;
    whole_t.title = "synthetic whole-table job";
    whole_t.header = {"Row", "Value"};
    whole_t.csvName = dir + "whole.csv";
    whole_t.emit = [](const FigurePoint &) -> FigureRows {
        // Rows that share state (here: a running sum) stay together.
        int sum = 0;
        FigureRows rows;
        for (int i = 1; i <= 3; ++i) {
            sum += i;
            rows.push_back({std::to_string(i), std::to_string(sum)});
        }
        return rows;
    };
    bench.add(std::move(whole_t));
    return bench;
}

/** Fresh per-test scratch dir: ctest -j runs tests concurrently,
 *  and cache-backed tests must not inherit a previous run's store. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name + "/";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(FigureBench, OutputIsByteIdenticalAcrossWorkerCounts)
{
    const std::string dir = scratchDir("bench_grid_jobs");
    auto run = [&](int jobs) {
        BenchOptions opt;
        opt.common.jobs = jobs;
        std::ostringstream out, err;
        EXPECT_EQ(syntheticBench(dir).run(opt, out, err), 0)
            << err.str();
        EXPECT_EQ(err.str(), "");
        return out.str() + "|" + slurp(dir + "grid.csv") + "|" +
               slurp(dir + "whole.csv");
    };

    const std::string serial = run(1);
    EXPECT_NE(serial.find("a=2 b=7"), std::string::npos);
    EXPECT_NE(serial.find("a=5 b=11,55"), std::string::npos);
    for (int jobs : {2, 4, 8})
        EXPECT_EQ(run(jobs), serial) << "jobs=" << jobs;
}

TEST(FigureBench, ShardCsvsConcatenateToTheFullCsv)
{
    const std::string dir = scratchDir("bench_grid_shards");
    const FigureBench bench = syntheticBench(dir);
    EXPECT_EQ(bench.jobCount(), 7u); // 6 grid points + 1 whole table

    BenchOptions full;
    full.common.jobs = 2;
    std::ostringstream out, err;
    ASSERT_EQ(bench.run(full, out, err), 0) << err.str();
    const std::string grid_full = slurp(dir + "grid.csv");
    const std::string whole_full = slurp(dir + "whole.csv");

    // Every shard count recombines byte-identically, including
    // counts larger than the job list (empty shards emit nothing).
    for (int n : {2, 3, 5, 9}) {
        std::string grid_merged, whole_merged;
        for (int i = 0; i < n; ++i) {
            BenchOptions opt;
            opt.common.jobs = 2;
            opt.common.shard = runner::Shard{i, n};
            std::ostringstream sout, serr;
            ASSERT_EQ(bench.run(opt, sout, serr), 0) << serr.str();
            EXPECT_NE(sout.str().find("(shard " + opt.common.shard.label() +
                                      ")"),
                      std::string::npos);
            grid_merged += slurp(dir + "grid.csv");
            whole_merged += slurp(dir + "whole.csv");
        }
        EXPECT_EQ(grid_merged, grid_full) << "n=" << n;
        EXPECT_EQ(whole_merged, whole_full) << "n=" << n;
    }
}

/** A tiny two-table bench whose emit calls are counted. */
FigureBench
countingBench(const std::string &dir, std::atomic<int> *emits)
{
    FigureBench bench("counting");
    FigureTable t;
    t.title = "counting grid";
    t.header = {"Point", "Square"};
    t.csvName = dir + "counting.csv";
    t.grid.axis("v", {"2", "3", "4"});
    t.emit = [emits](const FigurePoint &p) -> FigureRows {
        emits->fetch_add(1);
        const int v = p.integer("v");
        return {{p.label, std::to_string(v * v)}};
    };
    bench.add(std::move(t));
    return bench;
}

TEST(FigureBench, WarmCacheRerunExecutesZeroJobs)
{
    const std::string dir = scratchDir("bench_grid_cache");
    std::atomic<int> emits{0};
    const FigureBench bench = countingBench(dir, &emits);

    BenchOptions opt;
    opt.common.jobs = 2;
    opt.common.cacheDir = dir + "cache";

    std::ostringstream cold_out, cold_err;
    ASSERT_EQ(bench.run(opt, cold_out, cold_err), 0)
        << cold_err.str();
    EXPECT_EQ(emits.load(), 3);
    EXPECT_NE(cold_out.str().find("counting: cache: 0 hits, 3"
                                  " misses, 3 stored; simulation jobs"
                                  " executed: 3"),
              std::string::npos)
        << cold_out.str();
    const std::string cold_csv = slurp(dir + "counting.csv");
    EXPECT_NE(cold_csv.find("v=4,16"), std::string::npos);

    // The warm rerun renders from the store: same bytes, no emits.
    std::ostringstream warm_out, warm_err;
    ASSERT_EQ(bench.run(opt, warm_out, warm_err), 0)
        << warm_err.str();
    EXPECT_EQ(emits.load(), 3);
    EXPECT_NE(warm_out.str().find("counting: cache: 3 hits, 0"
                                  " misses, 0 stored; simulation jobs"
                                  " executed: 0"),
              std::string::npos)
        << warm_out.str();
    EXPECT_EQ(slurp(dir + "counting.csv"), cold_csv);

    // --cache off ignores the warm directory entirely.
    BenchOptions off = opt;
    off.common.cacheMode = cache::Mode::Off;
    std::ostringstream off_out, off_err;
    ASSERT_EQ(bench.run(off, off_out, off_err), 0) << off_err.str();
    EXPECT_EQ(emits.load(), 6);
    EXPECT_EQ(off_out.str().find("cache:"), std::string::npos);
}

TEST(FigureBench, ShardsResumeFromASharedCacheDir)
{
    const std::string dir = scratchDir("bench_grid_cache_shard");
    std::atomic<int> emits{0};
    const FigureBench bench = countingBench(dir, &emits);

    // Shard 0 fills its slice; the full run only emits the rest.
    BenchOptions s0;
    s0.common.cacheDir = dir + "cache";
    s0.common.shard = runner::Shard{0, 2};
    std::ostringstream out0, err0;
    ASSERT_EQ(bench.run(s0, out0, err0), 0) << err0.str();
    const int shard0_emits = emits.load();
    EXPECT_GT(shard0_emits, 0);

    BenchOptions full;
    full.common.cacheDir = dir + "cache";
    std::ostringstream out1, err1;
    ASSERT_EQ(bench.run(full, out1, err1), 0) << err1.str();
    EXPECT_EQ(emits.load(), 3); // shard jobs were not re-emitted
    EXPECT_NE(out1.str().find("cache: " +
                              std::to_string(shard0_emits) +
                              " hits"),
              std::string::npos)
        << out1.str();
}

TEST(FigureBench, JobFailureIsReportedNotSwallowed)
{
    FigureBench bench("failing");
    FigureTable t;
    t.title = "failing";
    t.header = {"Col"};
    t.grid.axis("i", {"0", "1", "2", "3", "4"});
    t.emit = [](const FigurePoint &p) -> FigureRows {
        if (p.index == 1 || p.index == 3)
            fatal("grid point ", p.index, " exploded");
        return {{p.value("i")}};
    };
    bench.add(std::move(t));

    // Every point runs; the reported failure is the first by index,
    // independent of scheduling.
    for (int jobs : {1, 4}) {
        BenchOptions opt;
        opt.common.jobs = jobs;
        std::ostringstream out, err;
        EXPECT_EQ(bench.run(opt, out, err), 1);
        EXPECT_NE(err.str().find("job 1: "), std::string::npos)
            << err.str();
        EXPECT_NE(err.str().find("grid point 1 exploded"),
                  std::string::npos)
            << err.str();
        EXPECT_EQ(err.str().find("grid point 3"), std::string::npos)
            << err.str();
    }
}

/** Occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(FigureBench, CachedRunCarriesHostPhasesAndCacheEvents)
{
    // A cached bench goes through the same job loop as canonsim, so
    // every point reports its cache events and, with --host-timers,
    // its host phases -- cold (probe, miss, store) and warm (probe,
    // hit) alike.
    const std::string dir = scratchDir("bench_grid_obs");
    std::atomic<int> emits{0};
    const FigureBench bench = countingBench(dir, &emits);

    BenchOptions opt;
    opt.common.jobs = 2;
    opt.common.cacheDir = dir + "cache";
    opt.common.obs.hostTimers = true;
    opt.common.obs.statsJsonOut = dir + "stats.json";
    for (const char *events : {"\"cache\":[\"probe\",\"miss\",\"store\"]",
                               "\"cache\":[\"probe\",\"hit\"]"}) {
        std::ostringstream out, err;
        ASSERT_EQ(bench.run(opt, out, err), 0) << err.str();
        const std::string stats = slurp(dir + "stats.json");
        EXPECT_EQ(countOf(stats, events), 3u) << stats;
        EXPECT_EQ(countOf(stats, "\"host\":{\"queueWaitUs\""), 3u)
            << stats;
    }
    EXPECT_EQ(emits.load(), 3);
}

TEST(FigureBench, CorruptCacheEntryIsRecomputedAsOneMiss)
{
    // Figure 16 with one cache entry's body replaced: the entry is a
    // miss like any other -- recomputed, counted once, never fatal --
    // and the CSV is byte-identical to the cold run's.
    const auto old_cwd = std::filesystem::current_path();
    const std::string dir = scratchDir("fig16_corrupt");
    std::filesystem::current_path(dir);

    BenchOptions opt;
    opt.common.jobs = 2;
    opt.common.cacheDir = dir + "cache";
    std::ostringstream cold_out, cold_err;
    ASSERT_EQ(figure16Bench().run(opt, cold_out, cold_err), 0)
        << cold_err.str();
    const std::string cold_csv = slurp("fig16_bandwidth.csv");

    std::vector<std::filesystem::path> entries;
    for (const auto &e :
         std::filesystem::directory_iterator(opt.common.cacheDir))
        entries.push_back(e.path());
    const std::size_t n = figure16Bench().jobCount();
    ASSERT_EQ(entries.size(), n);
    const std::string text = slurp(entries.front().string());
    const auto body = text.find('\n', text.find('\n') + 1);
    ASSERT_NE(body, std::string::npos);
    std::ofstream(entries.front(), std::ios::binary)
        << text.substr(0, body + 1) << "stale garbage\n";

    std::ostringstream out, err;
    EXPECT_EQ(figure16Bench().run(opt, out, err), 0) << err.str();
    EXPECT_EQ(err.str(), "");
    EXPECT_EQ(slurp("fig16_bandwidth.csv"), cold_csv);
    EXPECT_NE(out.str().find("cache: " + std::to_string(n - 1) +
                             " hits, 1 misses"),
              std::string::npos)
        << out.str();

    std::filesystem::current_path(old_cwd);
}

// ---- shared bench CLI -------------------------------------------------

TEST(BenchArgs, ParsesJobsShardAndHelp)
{
    BenchOptions opt;
    EXPECT_EQ(parseBenchArgs({"--jobs", "4", "--shard", "1/2"}, opt),
              "");
    EXPECT_EQ(opt.common.jobs, 4);
    EXPECT_EQ(opt.common.shard.index, 1);
    EXPECT_EQ(opt.common.shard.count, 2);
    EXPECT_FALSE(opt.showHelp);
    EXPECT_TRUE(opt.common.cacheDir.empty());

    BenchOptions cached;
    EXPECT_EQ(parseBenchArgs({"--cache-dir", "/tmp/c", "--cache",
                              "refresh"},
                             cached),
              "");
    EXPECT_EQ(cached.common.cacheDir, "/tmp/c");
    EXPECT_EQ(cached.common.cacheMode, cache::Mode::Refresh);

    BenchOptions eq;
    EXPECT_EQ(parseBenchArgs({"--jobs=8", "--shard=0/4"}, eq), "");
    EXPECT_EQ(eq.common.jobs, 8);
    EXPECT_EQ(eq.common.shard.count, 4);

    BenchOptions help;
    EXPECT_EQ(parseBenchArgs({"--help"}, help), "");
    EXPECT_TRUE(help.showHelp);

    BenchOptions none;
    EXPECT_EQ(parseBenchArgs({}, none), "");
    EXPECT_EQ(none.common.jobs, 0); // 0 = the binary's default
    EXPECT_TRUE(none.common.shard.whole());
}

TEST(BenchArgs, RejectsMalformedInput)
{
    BenchOptions opt;
    EXPECT_NE(parseBenchArgs({"--jobs", "0"}, opt), "");
    EXPECT_NE(parseBenchArgs({"--jobs", "many"}, opt), "");
    EXPECT_NE(parseBenchArgs({"--jobs"}, opt), "");
    EXPECT_NE(parseBenchArgs({"--shard", "2/2"}, opt), "");
    EXPECT_NE(parseBenchArgs({"--shard", "nope"}, opt), "");
    EXPECT_NE(parseBenchArgs({"--frobnicate", "1"}, opt), "");
    EXPECT_NE(parseBenchArgs({"--cache", "rw"}, opt), "");
    // --cache without --cache-dir is a usage error here too.
    EXPECT_NE(parseBenchArgs({"--cache", "read"}, opt), "");
}

// ---- figure registry --------------------------------------------------

TEST(FigureRegistry, EveryBinaryBuildsANonEmptyBench)
{
    const auto &entries = figureRegistry();
    EXPECT_EQ(entries.size(), 13u);
    for (const auto &entry : entries) {
        const FigureBench bench = entry.build();
        EXPECT_EQ(bench.name(), entry.binary);
        EXPECT_GT(bench.jobCount(), 0u) << entry.binary;
    }
}

// ---- a real converted figure ------------------------------------------

TEST(FigureBench, ConvertedFigure16IsDeterministicAcrossJobsAndShards)
{
    // Figure 16 runs eight real proxy simulations, one per sparsity
    // row -- small enough for a unit test, real enough to catch
    // shared-state bugs in a converted figure. CSVs land in the CWD,
    // so run from a scratch directory.
    const auto old_cwd = std::filesystem::current_path();
    const std::string dir = ::testing::TempDir() + "fig16_grid";
    std::filesystem::create_directories(dir);
    std::filesystem::current_path(dir);

    auto run = [](const BenchOptions &opt) {
        std::ostringstream out, err;
        EXPECT_EQ(figure16Bench().run(opt, out, err), 0) << err.str();
        return slurp("fig16_bandwidth.csv");
    };

    BenchOptions serial;
    serial.common.jobs = 1;
    const std::string baseline = run(serial);
    EXPECT_NE(baseline.find("Sparsity,AI(ops/B)"), std::string::npos);

    BenchOptions threaded;
    threaded.common.jobs = 4;
    EXPECT_EQ(run(threaded), baseline);

    std::string merged;
    for (int i = 0; i < 2; ++i) {
        BenchOptions opt;
        opt.common.jobs = 2;
        opt.common.shard = runner::Shard{i, 2};
        merged += run(opt);
    }
    EXPECT_EQ(merged, baseline);

    std::filesystem::current_path(old_cwd);
}

} // namespace
} // namespace bench
} // namespace canon
