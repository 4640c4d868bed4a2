/**
 * @file
 * Runner subsystem tests: sweep-spec expansion (cartesian product,
 * axis validation), worker-pool determinism (identical results and
 * identical rendered output regardless of thread count), and the
 * aggregated sweep table.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>

#include "cli/driver.hh"
#include "common/logging.hh"
#include "engine/engine.hh"
#include "runner/aggregate.hh"
#include "runner/pool.hh"
#include "runner/shard.hh"
#include "runner/sweep.hh"

namespace canon
{
namespace runner
{
namespace
{

cli::Options
smallSpmm()
{
    cli::Options o;
    o.workload = cli::Workload::Spmm;
    o.m = 32;
    o.k = 32;
    o.n = 32;
    o.sparsity = 0.5;
    o.archs = {"canon"};
    return o;
}

// ---- SweepSpec expansion ---------------------------------------------

TEST(SweepSpec, NoAxesExpandsToSingleBaseJob)
{
    SweepSpec spec;
    EXPECT_EQ(spec.jobCount(), 1u);

    const cli::Options base = smallSpmm();
    auto jobs = spec.expand(base);
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].index, 0u);
    EXPECT_EQ(jobs[0].point, "");
    EXPECT_EQ(jobs[0].options.m, base.m);
    EXPECT_DOUBLE_EQ(jobs[0].options.sparsity, base.sparsity);
}

TEST(SweepSpec, SingleAxisExpandsInDeclaredValueOrder)
{
    SweepSpec spec;
    ASSERT_EQ(spec.addAxis("sparsity", "0.3,0.5,0.9"), "");
    EXPECT_EQ(spec.jobCount(), 3u);

    auto jobs = spec.expand(smallSpmm());
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_DOUBLE_EQ(jobs[0].options.sparsity, 0.3);
    EXPECT_DOUBLE_EQ(jobs[1].options.sparsity, 0.5);
    EXPECT_DOUBLE_EQ(jobs[2].options.sparsity, 0.9);
    EXPECT_EQ(jobs[0].point, "sparsity=0.3");
    EXPECT_EQ(jobs[2].point, "sparsity=0.9");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
}

TEST(SweepSpec, CartesianProductVariesLastAxisFastest)
{
    SweepSpec spec;
    ASSERT_EQ(spec.addAxis("sparsity", "0.3,0.6"), "");
    ASSERT_EQ(spec.addAxis("rows", "4,8"), "");
    EXPECT_EQ(spec.jobCount(), 4u);

    auto jobs = spec.expand(smallSpmm());
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].point, "sparsity=0.3 rows=4");
    EXPECT_EQ(jobs[1].point, "sparsity=0.3 rows=8");
    EXPECT_EQ(jobs[2].point, "sparsity=0.6 rows=4");
    EXPECT_EQ(jobs[3].point, "sparsity=0.6 rows=8");
    EXPECT_EQ(jobs[1].options.fabric.rows, 8);
    EXPECT_DOUBLE_EQ(jobs[1].options.sparsity, 0.3);
    EXPECT_EQ(jobs[2].options.fabric.rows, 4);
    EXPECT_DOUBLE_EQ(jobs[2].options.sparsity, 0.6);
}

TEST(SweepSpec, WorkloadAndModelAreSweepable)
{
    SweepSpec spec;
    ASSERT_EQ(spec.addAxis("workload", "gemm,spmm"), "");
    ASSERT_EQ(spec.addAxis("model", "longformer,none"), "");
    auto jobs = spec.expand(smallSpmm());
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].options.workload, cli::Workload::Gemm);
    EXPECT_EQ(jobs[0].options.model, "longformer");
    EXPECT_EQ(jobs[1].options.model, "");
    EXPECT_EQ(jobs[2].options.workload, cli::Workload::Spmm);
}

TEST(SweepSpec, RejectsBadAxes)
{
    SweepSpec spec;
    // Unknown key.
    EXPECT_NE(spec.addAxis("frobnicate", "1,2"), "");
    // Keys outside the scenario grammar are not sweepable, and the
    // message says so rather than calling a real flag unknown.
    const std::string csv_err = spec.addAxis("csv", "a.csv,b.csv");
    EXPECT_NE(csv_err.find("not sweepable"), std::string::npos)
        << csv_err;
    EXPECT_NE(spec.addAxis("arch", "canon,zed"), "");
    EXPECT_NE(spec.addAxis("jobs", "1,2"), "");
    // Malformed values.
    EXPECT_NE(spec.addAxis("sparsity", "0.5,1.5"), "");
    EXPECT_NE(spec.addAxis("m", "64,abc"), "");
    EXPECT_NE(spec.addAxis("model", "gpt5"), "");
    // Empty value list, embedded and trailing empty values.
    EXPECT_NE(spec.addAxis("rows", ""), "");
    EXPECT_NE(spec.addAxis("rows", "4,,8"), "");
    EXPECT_NE(spec.addAxis("rows", "4,8,"), "");
    // "--sweep --rows=4" style keys get a targeted hint.
    const std::string dash_err = spec.addAxis("--rows", "4,8");
    EXPECT_NE(dash_err.find("should not start with '-'"),
              std::string::npos)
        << dash_err;
    // A rejected axis must not have been recorded.
    EXPECT_EQ(spec.axisCount(), 0u);
    EXPECT_EQ(spec.jobCount(), 1u);
}

TEST(SweepSpec, RejectsDuplicateAxis)
{
    SweepSpec spec;
    ASSERT_EQ(spec.addAxis("rows", "4,8"), "");
    const std::string err = spec.addAxis("rows", "16");
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
    EXPECT_EQ(spec.axisCount(), 1u);
}

TEST(SweepSpec, RejectedAxisKeepsTheAxesBeforeIt)
{
    // Axes are added one by one (ScenarioRequest::fromOptions stops at
    // the first error): a rejected axis names itself and leaves the
    // spec as it was.
    SweepSpec spec;
    ASSERT_EQ(spec.addAxis("rows", "4"), "");
    const std::string err = spec.addAxis("sparsity", "2.0");
    EXPECT_NE(err.find("sparsity"), std::string::npos) << err;
    EXPECT_EQ(spec.axisCount(), 1u);

    ASSERT_EQ(spec.addAxis("sparsity", "0.5,0.7"), "");
    EXPECT_EQ(spec.jobCount(), 2u);
    const auto jobs = spec.expand(smallSpmm());
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].point, "rows=4 sparsity=0.5");
    EXPECT_EQ(jobs[1].point, "rows=4 sparsity=0.7");
}

TEST(SweepSpec, EveryNonScenarioFlagIsNotSweepable)
{
    // Every real flag outside the scenario grammar -- canonsim's own
    // and the common execution and observability flags -- gets the
    // targeted message, never "unknown option".
    for (const std::string key :
         {"arch", "csv", "sweep", "help", "list", "dry-run",
          "probe-spad", "jobs", "shard", "cache", "cache-dir",
          "sample-every", "series-out", "trace-out", "stats-json",
          "cycle-accounting", "host-timers"}) {
        SweepSpec spec;
        EXPECT_EQ(spec.addAxis(key, "1,2"),
                  "sweep axis '" + key +
                      "' is not sweepable (only workload, model,"
                      " shape, and fabric options are)");
    }
}

// ---- Shard splitter ---------------------------------------------------

TEST(Shard, ParsesValidSpecs)
{
    Shard s;
    EXPECT_EQ(parseShard("0/1", s), "");
    EXPECT_TRUE(s.whole());

    EXPECT_EQ(parseShard("3/8", s), "");
    EXPECT_EQ(s.index, 3);
    EXPECT_EQ(s.count, 8);
    EXPECT_FALSE(s.whole());
    EXPECT_EQ(s.label(), "3/8");
}

TEST(Shard, RejectsMalformedSpecs)
{
    Shard s{7, 9}; // must stay untouched on failure
    for (const char *bad :
         {"", "2", "/", "2/", "/2", "2/2", "3/2", "-1/2", "0/0",
          "0/-3", "a/b", "1/2x", "1.5/2", "0/9999"}) {
        EXPECT_NE(parseShard(bad, s), "") << bad;
        EXPECT_EQ(s.index, 7) << bad;
        EXPECT_EQ(s.count, 9) << bad;
    }
}

TEST(Shard, RangesPartitionTheJobList)
{
    // Union of all shards == [0, total), disjoint, in order -- for
    // totals smaller than, equal to, and larger than the shard count.
    for (std::size_t total : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 100u}) {
        for (int n : {1, 2, 3, 4, 8}) {
            std::size_t expect_begin = 0;
            for (int i = 0; i < n; ++i) {
                const auto [first, last] =
                    shardRange(Shard{i, n}, total);
                EXPECT_EQ(first, expect_begin)
                    << "total=" << total << " shard=" << i << "/" << n;
                EXPECT_LE(first, last);
                expect_begin = last;
            }
            EXPECT_EQ(expect_begin, total) << "total=" << total
                                           << " n=" << n;
        }
    }
}

TEST(Shard, SlicesAreBalancedWithinOneJob)
{
    const std::size_t total = 10;
    for (int i = 0; i < 3; ++i) {
        const auto [first, last] = shardRange(Shard{i, 3}, total);
        const std::size_t size = last - first;
        EXPECT_GE(size, 3u);
        EXPECT_LE(size, 4u);
    }
}

TEST(Shard, MoreShardsThanJobsYieldsEmptySlices)
{
    // 2 jobs over 5 shards: some shards own nothing, and that is a
    // legal, silent no-op rather than an error.
    std::size_t owned = 0, empty_shards = 0;
    for (int i = 0; i < 5; ++i) {
        const auto [first, last] = shardRange(Shard{i, 5}, 2);
        owned += last - first;
        if (first == last)
            ++empty_shards;
    }
    EXPECT_EQ(owned, 2u);
    EXPECT_EQ(empty_shards, 3u);

    // The fully degenerate case: no jobs at all.
    const auto [first, last] = shardRange(Shard{1, 4}, 0);
    EXPECT_EQ(first, last);
}

// ---- ScenarioPool -----------------------------------------------------

TEST(ScenarioPool, EmptyJobListYieldsNoResults)
{
    ScenarioPool pool(4);
    auto results = pool.run(
        {}, [](const cli::Options &) { return CaseResult{}; });
    EXPECT_TRUE(results.empty());
}

TEST(ScenarioPool, ResultsLandAtTheirJobIndex)
{
    SweepSpec spec;
    ASSERT_EQ(spec.addAxis("m", "8,16,24,32,40,48,56,64"), "");
    auto jobs = spec.expand(smallSpmm());

    // A synthetic runner that encodes the job's m into the profile,
    // so any misplacement is visible.
    auto fn = [](const cli::Options &o) {
        CaseResult r;
        ExecutionProfile p;
        p.cycles = static_cast<std::uint64_t>(o.m);
        r["canon"] = p;
        return r;
    };

    for (int workers : {1, 3, 8, 16}) {
        auto results = ScenarioPool(workers).run(jobs, fn);
        ASSERT_EQ(results.size(), jobs.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(results[i].job.index, i);
            EXPECT_EQ(results[i].cases.at("canon").cycles,
                      static_cast<std::uint64_t>(
                          jobs[i].options.m))
                << "workers=" << workers << " job=" << i;
        }
    }
}

TEST(ScenarioPool, CapturesExceptionsAndEmptyResults)
{
    SweepSpec spec;
    ASSERT_EQ(spec.addAxis("m", "8,16,24"), "");
    auto jobs = spec.expand(smallSpmm());

    auto fn = [](const cli::Options &o) -> CaseResult {
        if (o.m == 8)
            fatal("scenario exploded");
        if (o.m == 16)
            return {}; // nothing could run
        CaseResult r;
        r["canon"] = ExecutionProfile{};
        r["canon"].cycles = 1;
        return r;
    };

    auto results = ScenarioPool(2).run(jobs, fn);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_NE(results[0].error.find("scenario exploded"),
              std::string::npos);
    EXPECT_EQ(results[1].error, std::string(kNoArchError));
    EXPECT_EQ(results[2].error, "");
    EXPECT_EQ(results[2].cases.at("canon").cycles, 1u);
}

TEST(ScenarioPool, CancelTokenLandsTypedFailuresAtTheirIndex)
{
    SweepSpec spec;
    ASSERT_EQ(spec.addAxis("m", "8,16,24,32"), "");
    auto jobs = spec.expand(smallSpmm());

    // One worker runs the jobs inline in index order; cancelling
    // from the first callback deterministically skips the rest.
    CancelToken token;
    std::atomic<int> executed{0};
    auto results = ScenarioPool(1).run(
        jobs,
        [&](const cli::Options &) -> CaseResult {
            ++executed;
            CaseResult r;
            r["canon"] = ExecutionProfile{};
            r["canon"].cycles = 1;
            return r;
        },
        nullptr,
        [&](const ScenarioResult &) { token.cancel(); }, &token);

    EXPECT_EQ(executed.load(), 1);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].error, "");
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].error, std::string(kCancelledError));
        EXPECT_TRUE(results[i].cancelled()) << i;
        EXPECT_FALSE(results[i].cacheHit);
        EXPECT_FALSE(results[i].cacheStored);
    }

    // A token cancelled before the run skips everything.
    auto skipped = ScenarioPool(4).run(
        jobs,
        [&](const cli::Options &) -> CaseResult {
            ++executed;
            return {};
        },
        nullptr, nullptr, &token);
    EXPECT_EQ(executed.load(), 1);
    for (const auto &r : skipped)
        EXPECT_TRUE(r.cancelled());
}

TEST(ScenarioPool, RealSweepIsDeterministicAcrossWorkerCounts)
{
    SweepSpec spec;
    ASSERT_EQ(spec.addAxis("sparsity", "0.3,0.6"), "");
    ASSERT_EQ(spec.addAxis("rows", "2,4"), "");
    auto jobs = spec.expand(smallSpmm());

    auto run = [&](int workers) {
        return ScenarioPool(workers).run(
            jobs,
            engine::runScenarioCases);
    };

    auto serial = run(1);
    auto threaded = run(8);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].cases.size(), threaded[i].cases.size());
        for (const auto &[arch, profile] : serial[i].cases) {
            const auto &other = threaded[i].cases.at(arch);
            EXPECT_EQ(profile.cycles, other.cycles)
                << "job " << i << " arch " << arch;
            EXPECT_EQ(profile.activity, other.activity)
                << "job " << i << " arch " << arch;
        }
    }
}

// ---- sweep table / end-to-end ----------------------------------------

TEST(SweepResult, CombinedTableHasOneRowPerScenarioArch)
{
    SweepSpec spec;
    ASSERT_EQ(spec.addAxis("sparsity", "0.3,0.6"), "");
    cli::Options base = smallSpmm();
    base.archs = {"canon", "systolic"};
    auto jobs = spec.expand(base);

    auto results =
        ScenarioPool(2).run(jobs, engine::runScenarioCases);
    for (const auto &r : results)
        EXPECT_EQ(r.error, "") << r.job.point;

    std::ostringstream os;
    sweepTable(results).print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("Scenario"), std::string::npos);
    EXPECT_NE(text.find("sparsity=0.3"), std::string::npos);
    EXPECT_NE(text.find("sparsity=0.6"), std::string::npos);
    EXPECT_NE(text.find("systolic"), std::string::npos);
}

TEST(SweepResult, BaselineUtilizationUsesItsOwnMacs)
{
    // Util% divides by each architecture's own MAC lanes: the fixed
    // 16x16 baselines keep theirs on a 4x8 Canon fabric.
    cli::Options o;
    o.workload = cli::Workload::Gemm;
    o.fabric.rows = 4;
    o.archs = {"canon", "systolic", "zed"};
    const auto rows = archRows(o, engine::runScenarioCases(o));
    ASSERT_EQ(rows.size(), 3u);
    ASSERT_EQ(statsHeader(false)[2], "Util%");
    EXPECT_EQ(rows[0].arch, "canon");
    EXPECT_EQ(rows[0].cells[2], "95.7");
    EXPECT_EQ(rows[1].arch, "systolic");
    EXPECT_EQ(rows[1].cells[2], "89.4");
    EXPECT_EQ(rows[2].arch, "zed");
    EXPECT_EQ(rows[2].cells[2], "99.6");
}

TEST(SweepResult, FailedScenarioRendersXRow)
{
    SweepJob job;
    job.index = 0;
    job.options = smallSpmm();
    job.point = "m=8";
    ScenarioResult failed;
    failed.job = job;
    failed.error = "boom";

    std::ostringstream os;
    sweepTable({failed}).print(os);
    EXPECT_NE(os.str().find("m=8"), std::string::npos);
    EXPECT_NE(os.str().find("X"), std::string::npos);
}

TEST(RunScenario, SweepOutputByteIdenticalAcrossJobCounts)
{
    auto run = [](int jobs_flag) {
        auto parsed = cli::parseArgs(
            {"--workload", "spmm", "--m", "32", "--k", "32", "--n",
             "32", "--sweep", "sparsity=0.5,0.7,0.9", "--sweep",
             "rows=4,8", "--jobs", std::to_string(jobs_flag)});
        EXPECT_TRUE(parsed.ok) << parsed.error;
        std::ostringstream out, err;
        const int rc =
            cli::runScenario(parsed.options, out, err);
        EXPECT_EQ(rc, 0) << err.str();
        EXPECT_EQ(err.str(), "");
        return out.str();
    };

    const std::string serial = run(1);
    const std::string threaded = run(4);
    EXPECT_EQ(serial, threaded);
    // All six scenarios must be present.
    for (const char *point :
         {"sparsity=0.5 rows=4", "sparsity=0.5 rows=8",
          "sparsity=0.7 rows=4", "sparsity=0.7 rows=8",
          "sparsity=0.9 rows=4", "sparsity=0.9 rows=8"})
        EXPECT_NE(serial.find(point), std::string::npos) << point;
}

TEST(RunScenario, SweepCsvByteIdenticalAcrossJobCounts)
{
    auto run = [](int jobs_flag, const std::string &path) {
        auto parsed = cli::parseArgs(
            {"--workload", "gemm", "--m", "16", "--k", "16", "--n",
             "16", "--sweep", "k=16,32", "--jobs",
             std::to_string(jobs_flag), "--csv", path});
        EXPECT_TRUE(parsed.ok) << parsed.error;
        std::ostringstream out, err;
        EXPECT_EQ(cli::runScenario(parsed.options, out, err), 0)
            << err.str();
        std::ifstream f(path);
        std::stringstream ss;
        ss << f.rdbuf();
        return ss.str();
    };

    const std::string dir = ::testing::TempDir();
    const std::string a = run(1, dir + "runner_sweep_1.csv");
    const std::string b = run(3, dir + "runner_sweep_3.csv");
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("Scenario,Point,Arch"), std::string::npos);
}

TEST(RunScenario, ShardCsvsConcatenateToTheFullSweepCsv)
{
    auto run = [](const std::string &shard, const std::string &path) {
        std::vector<std::string> args = {
            "--workload", "gemm", "--m", "16", "--k", "16", "--n",
            "16", "--sweep", "k=16,32,48", "--sweep", "rows=2,4",
            "--csv", path};
        if (!shard.empty()) {
            args.push_back("--shard");
            args.push_back(shard);
        }
        auto parsed = cli::parseArgs(args);
        EXPECT_TRUE(parsed.ok) << parsed.error;
        std::ostringstream out, err;
        EXPECT_EQ(cli::runScenario(parsed.options, out, err), 0)
            << err.str();
        std::ifstream f(path);
        std::stringstream ss;
        ss << f.rdbuf();
        return ss.str();
    };

    const std::string dir = ::testing::TempDir();
    const std::string full = run("", dir + "shard_full.csv");
    EXPECT_FALSE(full.empty());

    // Any shard count recombines to the serial CSV: only shard 0
    // carries the header, every slice keeps expansion order.
    for (int n : {2, 3, 4}) {
        std::string merged;
        for (int i = 0; i < n; ++i)
            merged += run(std::to_string(i) + "/" + std::to_string(n),
                          dir + "shard_part.csv");
        EXPECT_EQ(merged, full) << "n=" << n;
    }
}

TEST(RunScenario, ShardedRunReportsItsSlice)
{
    auto parsed = cli::parseArgs({"--workload", "gemm", "--m", "16",
                                  "--k", "16", "--n", "16", "--sweep",
                                  "k=16,32", "--shard", "1/2"});
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::ostringstream out, err;
    EXPECT_EQ(cli::runScenario(parsed.options, out, err), 0)
        << err.str();
    EXPECT_NE(out.str().find("1 of 2 scenarios (shard 1/2)"),
              std::string::npos)
        << out.str();
    // Shard 1 owns only the second expansion point.
    EXPECT_EQ(out.str().find("k=16"), std::string::npos);
    EXPECT_NE(out.str().find("k=32"), std::string::npos);
}

TEST(RunScenario, ShardedSingleScenarioMayOwnNothing)
{
    // One job over two shards: the floor split [total*i/n,
    // total*(i+1)/n) hands the job to shard 1, so shard 0 owns the
    // empty slice and must succeed with an empty sweep report (the
    // shard contract), not crash on the missing single-run result.
    auto parsed = cli::parseArgs({"--workload", "gemm", "--m", "16",
                                  "--k", "16", "--n", "16", "--shard",
                                  "0/2"});
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::ostringstream out, err;
    EXPECT_EQ(cli::runScenario(parsed.options, out, err), 0)
        << err.str();
    EXPECT_NE(out.str().find("0 of 1 scenario (shard 0/2)"),
              std::string::npos)
        << out.str();
}

TEST(RunScenario, DegenerateSingleRunKeepsClassicReport)
{
    auto parsed = cli::parseArgs(
        {"--workload", "spmm", "--m", "32", "--k", "32", "--n", "32"});
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::ostringstream out, err;
    EXPECT_EQ(cli::runScenario(parsed.options, out, err), 0);
    EXPECT_EQ(err.str(), "");
    const std::string text = out.str();
    // Classic report: fabric description then the per-arch table.
    EXPECT_NE(text.find("=== canonsim: spmm"), std::string::npos);
    EXPECT_EQ(text.find("canonsim sweep"), std::string::npos);
}

TEST(RunScenario, MalformedSweepAxisExitsWithUsageError)
{
    auto parsed =
        cli::parseArgs({"--sweep", "sparsity=0.5,oops"});
    ASSERT_TRUE(parsed.ok) << parsed.error; // parse defers validation
    std::ostringstream out, err;
    EXPECT_EQ(cli::runScenario(parsed.options, out, err), 2);
    EXPECT_NE(err.str().find("sparsity"), std::string::npos);
    // Bad usage prints the usage text, like main.cc's parse failure.
    EXPECT_NE(err.str().find("Usage: canonsim"), std::string::npos);
}

TEST(RunScenario, RejectsShapeAxesWhenModelPinsTheScenario)
{
    auto parsed = cli::parseArgs(
        {"--model", "longformer", "--sweep", "m=8,16"});
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::ostringstream out, err;
    EXPECT_EQ(cli::runScenario(parsed.options, out, err), 2);
    EXPECT_NE(err.str().find("has no effect"), std::string::npos);

    // Sweeping only models (no 'none' point) is just as pinned.
    auto swept = cli::parseArgs(
        {"--sweep", "model=longformer,llama8b-attn", "--sweep",
         "m=8,16"});
    ASSERT_TRUE(swept.ok) << swept.error;
    std::ostringstream sout, serr;
    EXPECT_EQ(cli::runScenario(swept.options, sout, serr), 2);
    EXPECT_NE(serr.str().find("has no effect"), std::string::npos);

    // A 'model' axis (which may contain 'none') re-legitimizes the
    // shape axes: model=none points are shape scenarios.
    auto mixed = cli::parseArgs(
        {"--model", "longformer", "--workload", "gemm",
         "--m", "16", "--k", "16", "--n", "16",
         "--sweep", "model=none", "--sweep", "m=16,32"});
    ASSERT_TRUE(mixed.ok) << mixed.error;
    std::ostringstream mout, merr;
    EXPECT_EQ(cli::runScenario(mixed.options, mout, merr), 0)
        << merr.str();
    EXPECT_NE(mout.str().find("m=32"), std::string::npos);
}

} // namespace
} // namespace runner
} // namespace canon
