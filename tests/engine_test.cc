/**
 * @file
 * canon::engine façade tests: the shared common-flag grammar,
 * request-validation parity with every CLI rejection path, engine
 * execution (determinism across worker counts, streaming-callback
 * ordering, batches, shards), warm-cache engine reruns executing
 * zero simulation jobs, dry-run plans, and the introspection
 * registry's no-drift guarantees.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cache/key.hh"
#include "cli/driver.hh"
#include "cli/options.hh"
#include "engine/engine.hh"
#include "engine/registry.hh"
#include "workloads/models.hh"

namespace canon
{
namespace engine
{
namespace
{

/** Per-test scratch dir: ctest -j runs tests concurrently. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name + "/";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

cli::ParseResult
parse(std::initializer_list<std::string> args)
{
    return cli::parseArgs(std::vector<std::string>(args));
}

/** A @p workload request at the 64x64x16 shape most tests run. */
ScenarioRequest
small(const std::string &workload)
{
    ScenarioRequest req;
    req.set("workload", workload)
        .set("m", "64")
        .set("k", "64")
        .set("n", "16");
    return req;
}

std::string
render(const ResultSet &rs)
{
    std::ostringstream out;
    rs.sweepTable().print(out);
    return out.str();
}

// ---- the shared common-flag grammar -----------------------------------

TEST(CommonFlags, ParsesTheSharedGrammar)
{
    CommonFlags flags;
    std::string err;
    EXPECT_EQ(parseCommonFlag("--jobs", "4", flags, err),
              FlagParse::Ok);
    EXPECT_EQ(parseCommonFlag("--shard", "1/4", flags, err),
              FlagParse::Ok);
    EXPECT_EQ(parseCommonFlag("--cache-dir", "/tmp/c", flags, err),
              FlagParse::Ok);
    EXPECT_EQ(parseCommonFlag("--cache", "refresh", flags, err),
              FlagParse::Ok);
    EXPECT_EQ(flags.jobs, 4);
    EXPECT_EQ(flags.shard.index, 1);
    EXPECT_EQ(flags.shard.count, 4);
    EXPECT_EQ(flags.cacheDir, "/tmp/c");
    EXPECT_EQ(flags.cacheMode, cache::Mode::Refresh);
    EXPECT_TRUE(validateCommonFlags(flags).empty());

    EXPECT_EQ(parseCommonFlag("--sparsity", "0.5", flags, err),
              FlagParse::NotCommon);
    EXPECT_FALSE(isCommonFlag("--sparsity"));
    EXPECT_TRUE(isCommonFlag("--jobs"));
}

TEST(CommonFlags, ErrorsMatchTheCliParser)
{
    // Both canonsim and the benches report a bad common flag with
    // exactly the shared parser's message.
    const std::pair<const char *, const char *> bad[] = {
        {"--jobs", "0"},      {"--jobs", "257"}, {"--jobs", "many"},
        {"--shard", "2"},     {"--shard", "2/2"}, {"--shard", "a/b"},
        {"--cache-dir", ""},  {"--cache", "rw"},
    };
    for (const auto &[key, value] : bad) {
        CommonFlags flags;
        std::string err;
        ASSERT_EQ(parseCommonFlag(key, value, flags, err),
                  FlagParse::Error)
            << key << " " << value;
        auto res = parse({key, std::string(value)});
        ASSERT_FALSE(res.ok) << key;
        EXPECT_EQ(res.error, err) << key << " " << value;
    }
}

TEST(CommonFlags, CacheModeRequiresDirectory)
{
    CommonFlags flags;
    std::string err;
    ASSERT_EQ(parseCommonFlag("--cache", "read", flags, err),
              FlagParse::Ok);
    EXPECT_EQ(validateCommonFlags(flags),
              "option '--cache' requires --cache-dir");
}

// ---- request-validation parity with the CLI ---------------------------

TEST(ScenarioRequest, SetRejectsExactlyWhatTheCliRejects)
{
    // Every scenario-grammar rejection path, with the same text the
    // CLI parser produces (both funnel through applyScenarioOption).
    const std::pair<const char *, const char *> bad[] = {
        {"workload", "conv3d"}, {"model", "gpt2"},
        {"m", "abc"},           {"m", "0"},
        {"k", "-4"},            {"n", "1.5"},
        {"window", "0"},        {"seed", "-1"},
        {"sparsity", "1.0"},    {"sparsity", "-0.1"},
        {"sparsity", "dense"},  {"nm", "4"},
        {"nm", "4:2"},          {"nm", "0:4"},
        {"nm", "a:b"},          {"rows", "0"},
        {"cols", "2000"},       {"spad", "0"},
        {"dmem", "0"},          {"clock-ghz", "0"},
        {"frobnicate", "1"},
    };
    for (const auto &[key, value] : bad) {
        ScenarioRequest req;
        req.set(key, value);
        EXPECT_FALSE(req.validate()) << key << "=" << value;
        auto res = parse({"--" + std::string(key), value});
        ASSERT_FALSE(res.ok) << key;
        EXPECT_EQ(req.error(), res.error) << key << "=" << value;
    }
}

TEST(ScenarioRequest, ArchValidationMatchesTheCli)
{
    ScenarioRequest req;
    req.archs({"tpu"});
    EXPECT_FALSE(req.validate());
    auto res = parse({"--arch", "tpu"});
    ASSERT_FALSE(res.ok);
    EXPECT_EQ(req.error(), res.error);

    ScenarioRequest all;
    all.archs({"all"});
    ASSERT_TRUE(all.validate()) << all.error();
    EXPECT_EQ(all.options().archs.size(), 5u);
}

TEST(ScenarioRequest, SweepAxisValidationMatchesTheCli)
{
    // A malformed axis value: the request reports exactly the text
    // the CLI prints after "canonsim: ".
    ScenarioRequest req;
    req.sweep("sparsity", "0.5,oops");
    EXPECT_FALSE(req.validate());

    auto res = parse({"--sweep", "sparsity=0.5,oops"});
    ASSERT_TRUE(res.ok) << res.error; // axes validate at run time
    std::ostringstream out, err;
    EXPECT_EQ(cli::runScenario(res.options, out, err), 2);
    EXPECT_NE(err.str().find("canonsim: " + req.error()),
              std::string::npos)
        << err.str();

    // Duplicate and non-sweepable axes are construction-time errors.
    ScenarioRequest dup;
    dup.sweep("rows", "4,8").sweep("rows", "16");
    EXPECT_FALSE(dup.validate());
    EXPECT_NE(dup.error().find("duplicate"), std::string::npos);

    ScenarioRequest fixed;
    fixed.sweep("jobs", "1,2");
    EXPECT_FALSE(fixed.validate());
    EXPECT_NE(fixed.error().find("not sweepable"), std::string::npos);
}

TEST(ScenarioRequest, IrrelevantAxisRejectedLikeTheCli)
{
    // spmm never consumes --window: the relevance matrix rejects the
    // axis at validation, with the CLI's exact message.
    ScenarioRequest req;
    req.set("workload", "spmm").sweep("window", "32,64");
    EXPECT_FALSE(req.validate());
    EXPECT_NE(req.error().find("has no effect"), std::string::npos);

    auto res = parse({"--workload", "spmm", "--sweep",
                      "window=32,64"});
    ASSERT_TRUE(res.ok) << res.error;
    std::ostringstream out, err;
    EXPECT_EQ(cli::runScenario(res.options, out, err), 2);
    EXPECT_NE(err.str().find("canonsim: " + req.error()),
              std::string::npos)
        << err.str();
}

TEST(ScenarioRequest, WarningsMatchTheCli)
{
    auto res = parse({"--workload", "spmm", "--nm", "2:8"});
    ASSERT_TRUE(res.ok) << res.error;
    ScenarioRequest req = ScenarioRequest::fromOptions(res.options);
    ASSERT_TRUE(req.validate()) << req.error();
    ASSERT_EQ(req.warnings().size(), 1u);
    EXPECT_EQ(req.warnings()[0],
              "option '--nm' is ignored by workload 'spmm'");

    std::ostringstream out, err;
    EXPECT_EQ(cli::runScenario(res.options, out, err), 0);
    EXPECT_NE(err.str().find("canonsim: warning: " +
                             req.warnings()[0]),
              std::string::npos)
        << err.str();
}

TEST(ScenarioRequest, TypedSettersMatchParsedOptions)
{
    // A chain of set() calls and the same CLI spellings must name the
    // same scenario -- asserted through the canonical cache key,
    // which folds in everything result-shaping.
    ScenarioRequest req;
    req.set("workload", "spmm-nm")
        .set("m", "128")
        .set("k", "256")
        .set("n", "32")
        .set("nm", "2:8")
        .set("seed", "9")
        .set("rows", "4")
        .set("cols", "16")
        .set("spad", "32")
        .set("dmem", "2048")
        .set("clock-ghz", "1.5")
        .archs({"canon", "zed"});
    ASSERT_TRUE(req.validate()) << req.error();

    auto res = parse({"--workload", "spmm-nm", "--m", "128", "--k",
                      "256", "--n", "32", "--nm", "2:8", "--seed",
                      "9", "--rows", "4", "--cols", "16", "--spad",
                      "32", "--dmem", "2048", "--clock-ghz", "1.5",
                      "--arch", "canon,zed"});
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(cache::scenarioKey(req.options()).canonical,
              cache::scenarioKey(res.options).canonical);
}

TEST(ScenarioRequest, FirstErrorIsLatched)
{
    ScenarioRequest req;
    req.set("sparsity", "2.0").set("m", "64");
    EXPECT_FALSE(req.validate());
    EXPECT_NE(req.error().find("--sparsity"), std::string::npos);
    // The later, valid set() still applied.
    EXPECT_EQ(req.options().m, 64);
}

// ---- engine execution -------------------------------------------------

TEST(Engine, RunMatchesRunCases)
{
    ScenarioRequest req = small("spmm");
    req.set("sparsity", "0.5")
        .archs({"canon", "zed"});
    Engine eng(EngineConfig{.jobs = 1});
    ResultSet rs = eng.run(req);
    ASSERT_TRUE(rs.ok()) << rs.error();
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_TRUE(rs.single());
    EXPECT_EQ(rs.failureCount(), 0u);

    const CaseResult direct = runScenarioCases(req.options());
    const CaseResult &cases = rs.scenarios().front().cases;
    ASSERT_EQ(cases.size(), direct.size());
    for (const auto &[arch, profile] : direct) {
        ASSERT_TRUE(cases.count(arch)) << arch;
        EXPECT_EQ(cases.at(arch).cycles, profile.cycles) << arch;
    }
}

TEST(Engine, RunIsDeterministicAcrossWorkerCounts)
{
    ScenarioRequest req = small("spmm");
    req.sweep("sparsity", "0.3,0.5,0.7")
        .sweep("rows", "4,8");
    Engine serial(EngineConfig{.jobs = 1});
    Engine threaded(EngineConfig{.jobs = 4});
    const std::string a = render(serial.run(req));
    const std::string b = render(threaded.run(req));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Engine, PolicyAxesAreDeterministicAcrossWorkerCounts)
{
    // Sweeping the tag-bank count and flush policy must commute with
    // the worker count: four scenarios, byte-identical tables.
    ScenarioRequest req = small("spmm");
    req.sweep("tag-banks", "1,8")
        .sweep("spad-flush", "eager,adaptive");
    Engine serial(EngineConfig{.jobs = 1});
    Engine threaded(EngineConfig{.jobs = 4});
    const auto ra = serial.run(req);
    const auto rb = threaded.run(req);
    ASSERT_TRUE(ra.ok()) << ra.error();
    ASSERT_EQ(ra.size(), 4u);
    const std::string a = render(ra);
    const std::string b = render(rb);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Engine, RunBatchIsDeterministicAcrossWorkerCounts)
{
    ScenarioRequest sweep = small("spmm");
    sweep.sweep("sparsity", "0.3,0.6");
    ScenarioRequest gemm = small("gemm");

    Engine serial(EngineConfig{.jobs = 1});
    Engine threaded(EngineConfig{.jobs = 4});
    auto a = serial.runBatch({sweep, gemm});
    auto b = threaded.runBatch({sweep, gemm});
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 2u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].ok());
        EXPECT_EQ(render(a[i]), render(b[i])) << "request " << i;
    }
    // Requests keep their identities: one sweep set, one single.
    EXPECT_EQ(a[0].size(), 2u);
    EXPECT_TRUE(a[1].single());
}

TEST(Engine, StreamingCallbackDeliversInExpansionOrder)
{
    ScenarioRequest req = small("spmm");
    req.sweep("sparsity", "0.1,0.3,0.5,0.7")
        .sweep("rows", "4,8");
    Engine eng(EngineConfig{.jobs = 4});

    std::vector<std::size_t> order;
    std::vector<std::string> points;
    ResultSet rs = eng.run(req, [&](const runner::ScenarioResult &r) {
        order.push_back(r.job.index);
        points.push_back(r.job.point);
    });
    ASSERT_TRUE(rs.ok()) << rs.error();
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    // The streamed view is the result set, in the same order.
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i], rs.scenarios()[i].job.point);
}

TEST(Engine, ThrowingStreamCallbackRethrowsOnCallerThread)
{
    // A buggy callback must not escape a worker thread (that would
    // std::terminate); the pool latches the first exception and
    // rethrows it here, after every job has completed.
    ScenarioRequest req = small("spmm");
    req.sweep("sparsity", "0.2,0.4,0.6,0.8");
    Engine eng(EngineConfig{.jobs = 4});
    EXPECT_THROW(eng.run(req,
                         [](const runner::ScenarioResult &) {
                             throw std::runtime_error("boom");
                         }),
                 std::runtime_error);
}

TEST(Engine, StreamingCallbackSpansBatchInGlobalOrder)
{
    ScenarioRequest s1 = small("spmm");
    s1.sweep("sparsity", "0.2,0.4");
    ScenarioRequest s2 = small("gemm");

    Engine eng(EngineConfig{.jobs = 4});
    std::vector<std::string> labels;
    auto sets = eng.runBatch(
        {s1, s2}, [&](const runner::ScenarioResult &r) {
            labels.push_back(r.job.options.workloadLabel());
        });
    ASSERT_EQ(labels.size(), 3u);
    EXPECT_EQ(labels[0], "spmm 64x64x16 s=0.2");
    EXPECT_EQ(labels[1], "spmm 64x64x16 s=0.4");
    EXPECT_EQ(labels[2], "gemm 64x64x16");
    ASSERT_EQ(sets.size(), 2u);
    EXPECT_EQ(sets[0].size(), 2u);
    EXPECT_EQ(sets[1].size(), 1u);
}

TEST(Engine, ShardOwnsItsContiguousSlice)
{
    // The shard rides in the parsed options, as canonsim's --shard.
    auto makeReq = [](const std::string &shard) {
        auto res = parse({"--m", "64", "--k", "64", "--n", "16",
                          "--sweep", "sparsity=0.1,0.3,0.5,0.7,0.9",
                          "--shard", shard});
        EXPECT_TRUE(res.ok) << res.error;
        return ScenarioRequest::fromOptions(res.options);
    };
    Engine eng(EngineConfig{.jobs = 2});
    ResultSet whole = eng.run(makeReq("0/1"));
    ASSERT_EQ(whole.size(), 5u);

    std::vector<std::string> sharded;
    for (int i = 0; i < 2; ++i) {
        ResultSet rs = eng.run(makeReq(std::to_string(i) + "/2"));
        EXPECT_EQ(rs.totalJobs(), 5u);
        EXPECT_FALSE(rs.single());
        for (const auto &r : rs.scenarios())
            sharded.push_back(r.job.point);
    }
    ASSERT_EQ(sharded.size(), 5u);
    for (std::size_t i = 0; i < sharded.size(); ++i)
        EXPECT_EQ(sharded[i], whole.scenarios()[i].job.point);
}

TEST(Engine, InvalidRequestNeverRuns)
{
    ScenarioRequest bad;
    bad.set("sparsity", "2.0");
    Engine eng(EngineConfig{.jobs = 1});
    ResultSet rs = eng.run(bad);
    EXPECT_EQ(rs.status(), ResultSet::Status::InvalidRequest);
    EXPECT_FALSE(rs.ok());
    EXPECT_FALSE(rs.error().empty());
    EXPECT_EQ(rs.size(), 0u);

    // In a batch, the invalid request does not block the others.
    ScenarioRequest good = small("gemm");
    auto sets = eng.runBatch({bad, good});
    ASSERT_EQ(sets.size(), 2u);
    EXPECT_EQ(sets[0].status(), ResultSet::Status::InvalidRequest);
    ASSERT_TRUE(sets[1].ok());
    EXPECT_EQ(sets[1].failureCount(), 0u);
}

TEST(Engine, UnpreparableCacheDirectoryFailsTheRun)
{
    const std::string dir = scratchDir("engine_badcache");
    // A plain file where the cache directory should go.
    const std::string blocker = dir + "blocked";
    {
        std::ofstream f(blocker);
        f << "not a directory";
    }
    Engine eng(EngineConfig{.jobs = 1, .cacheDir = blocker});
    EXPECT_FALSE(eng.prepare().empty());

    ScenarioRequest req = small("gemm");
    ResultSet rs = eng.run(req);
    EXPECT_EQ(rs.status(), ResultSet::Status::Failed);
    EXPECT_FALSE(rs.error().empty());
}

// ---- cache integration ------------------------------------------------

TEST(Engine, WarmRerunExecutesZeroSimulationJobs)
{
    const std::string dir = scratchDir("engine_warm") + "cache";
    auto makeReq = [] {
        ScenarioRequest req = small("spmm");
        req.sweep("sparsity", "0.3,0.5,0.7");
        return req;
    };

    Engine cold(EngineConfig{.jobs = 2, .cacheDir = dir});
    ResultSet first = cold.run(makeReq());
    ASSERT_TRUE(first.ok()) << first.error();
    EXPECT_NE(first.cacheStatsLine().find(
                  "3 misses, 3 stored; simulation jobs executed: 3"),
              std::string::npos)
        << first.cacheStatsLine();

    Engine warm(EngineConfig{.jobs = 2, .cacheDir = dir});
    ResultSet second = warm.run(makeReq());
    ASSERT_TRUE(second.ok()) << second.error();
    EXPECT_NE(second.cacheStatsLine().find(
                  "3 hits, 0 misses, 0 stored; simulation jobs"
                  " executed: 0"),
              std::string::npos)
        << second.cacheStatsLine();
    EXPECT_EQ(render(first), render(second));
}

TEST(Engine, SharedEngineReportsPerRequestCacheDeltas)
{
    // One long-lived engine (the canond model) serving sequential
    // requests: each ResultSet's cache line must be that request's
    // own delta, not the engine's accumulated totals -- the second
    // run below would otherwise report the first run's misses and
    // stores as its own.
    const std::string dir = scratchDir("engine_delta") + "cache";
    ScenarioRequest req = small("spmm");
    req.sweep("sparsity", "0.3,0.5,0.7");

    Engine shared(EngineConfig{.jobs = 2, .cacheDir = dir});
    ResultSet first = shared.run(req);
    ASSERT_TRUE(first.ok()) << first.error();
    EXPECT_NE(first.cacheStatsLine().find(
                  "0 hits, 3 misses, 3 stored; simulation jobs"
                  " executed: 3"),
              std::string::npos)
        << first.cacheStatsLine();

    ResultSet second = shared.run(req);
    ASSERT_TRUE(second.ok()) << second.error();
    EXPECT_NE(second.cacheStatsLine().find(
                  "3 hits, 0 misses, 0 stored; simulation jobs"
                  " executed: 0"),
              std::string::npos)
        << second.cacheStatsLine();

    // The engine-lifetime totals still accumulate across both runs.
    EXPECT_NE(shared.cacheStatsLine().find("3 hits, 3 misses"),
              std::string::npos)
        << shared.cacheStatsLine();
}

TEST(Engine, CancelTokenSkipsRemainingScenarios)
{
    // jobs=1 runs the expansion inline in index order, so a token
    // cancelled from the first scenario's callback deterministically
    // skips the remaining four.
    ScenarioRequest req = small("spmm");
    req.sweep("sparsity", "0.1,0.3,0.5,0.7,0.9");

    Engine eng(EngineConfig{.jobs = 1});
    runner::CancelToken token;
    std::size_t streamed = 0;
    ResultSet rs = eng.run(
        req,
        [&](const runner::ScenarioResult &) {
            ++streamed;
            token.cancel();
        },
        &token);
    ASSERT_TRUE(rs.ok()) << rs.error();
    ASSERT_EQ(rs.size(), 5u);
    EXPECT_EQ(streamed, 5u); // cancelled results still stream
    EXPECT_EQ(rs.cancelledCount(), 4u);
    EXPECT_EQ(rs.failureCount(), 4u);
    EXPECT_TRUE(rs.scenarios()[0].error.empty());
    for (std::size_t i = 1; i < rs.size(); ++i) {
        EXPECT_TRUE(rs.scenarios()[i].cancelled()) << i;
        EXPECT_EQ(rs.scenarios()[i].error, runner::kCancelledError);
    }
}

TEST(Engine, CancelledScenariosNeverTouchTheCache)
{
    // A cancelled job must not probe, count, or store: the cache
    // line for the run reports only the one scenario that executed.
    const std::string dir = scratchDir("engine_cancel_cache")
                            + "cache";
    ScenarioRequest req = small("spmm");
    req.sweep("sparsity", "0.2,0.4,0.6");

    Engine eng(EngineConfig{.jobs = 1, .cacheDir = dir});
    runner::CancelToken token;
    ResultSet rs = eng.run(
        req,
        [&](const runner::ScenarioResult &) { token.cancel(); },
        &token);
    ASSERT_TRUE(rs.ok()) << rs.error();
    EXPECT_EQ(rs.cancelledCount(), 2u);
    EXPECT_NE(rs.cacheStatsLine().find(
                  "0 hits, 1 misses, 1 stored; simulation jobs"
                  " executed: 1"),
              std::string::npos)
        << rs.cacheStatsLine();
}

TEST(Engine, PlanForecastsTheCache)
{
    const std::string dir = scratchDir("engine_plan") + "cache";
    ScenarioRequest req = small("spmm");
    req.sweep("sparsity", "0.3,0.7");

    // Uncached engine: every scenario always executes.
    Engine uncached(EngineConfig{.jobs = 1});
    auto plans = uncached.plan(req);
    ASSERT_EQ(plans.size(), 2u);
    for (const auto &p : plans)
        EXPECT_EQ(p.forecast, ScenarioPlan::Forecast::Uncached);

    // Cold cache: all misses, and planning must not simulate, count,
    // or store anything.
    Engine eng(EngineConfig{.jobs = 1, .cacheDir = dir});
    plans = eng.plan(req);
    ASSERT_EQ(plans.size(), 2u);
    for (const auto &p : plans) {
        EXPECT_EQ(p.forecast, ScenarioPlan::Forecast::Miss);
        EXPECT_FALSE(p.key.canonical.empty());
    }
    EXPECT_NE(eng.cacheStatsLine().find("0 hits, 0 misses, 0 stored"),
              std::string::npos);

    // Warm cache: all hits. Refresh mode still executes everything.
    ASSERT_TRUE(eng.run(req).ok());
    for (const auto &p : eng.plan(req))
        EXPECT_EQ(p.forecast, ScenarioPlan::Forecast::Hit);
    Engine refresh(EngineConfig{.jobs = 1,
                                .cacheDir = dir,
                                .cacheMode = cache::Mode::Refresh});
    for (const auto &p : refresh.plan(req))
        EXPECT_EQ(p.forecast, ScenarioPlan::Forecast::Miss);
}

TEST(Engine, DryRunCliSimulatesNothing)
{
    const std::string dir = scratchDir("engine_dryrun") + "cache";
    auto res = parse({"--workload", "spmm", "--m", "64", "--k", "64",
                      "--n", "16", "--sweep", "sparsity=0.3,0.7",
                      "--cache-dir", dir, "--dry-run"});
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_TRUE(res.options.dryRun);

    std::ostringstream out, err;
    EXPECT_EQ(cli::runScenario(res.options, out, err), 0);
    EXPECT_NE(out.str().find("canonsim dry-run: 2 scenarios"),
              std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("dry-run forecast: 0 hits, 2 misses;"
                             " simulation jobs to execute: 2"),
              std::string::npos)
        << out.str();

    // Nothing was simulated or stored: the cache directory is empty.
    std::size_t entries = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 0u);

    // After a real run the same dry-run forecasts a fully warm pass.
    auto run = parse({"--workload", "spmm", "--m", "64", "--k", "64",
                      "--n", "16", "--sweep", "sparsity=0.3,0.7",
                      "--cache-dir", dir});
    ASSERT_TRUE(run.ok);
    std::ostringstream rout, rerr;
    ASSERT_EQ(cli::runScenario(run.options, rout, rerr), 0);
    std::ostringstream wout, werr;
    EXPECT_EQ(cli::runScenario(res.options, wout, werr), 0);
    EXPECT_NE(wout.str().find("dry-run forecast: 2 hits, 0 misses;"
                              " simulation jobs to execute: 0"),
              std::string::npos)
        << wout.str();
}

TEST(Engine, PayloadBatchRoundTripsThroughTheCache)
{
    const std::string dir = scratchDir("engine_payload") + "cache";
    std::atomic<int> computed{0};
    auto runBatch = [&computed](Engine &eng) {
        std::vector<std::string> payloads(4);
        std::vector<runner::JobStatus> status(4);
        std::vector<runner::CachedJob> batch(4);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            batch[i].key = cache::figureKey("engine_test", "t",
                                            "i=" + std::to_string(i));
            batch[i].compute = [&computed, i] {
                ++computed;
                return "payload-" + std::to_string(i);
            };
            batch[i].accept = [&out = payloads[i]](const std::string &p) {
                out = p;
                return true;
            };
            batch[i].status = &status[i];
        }
        eng.runJobs(batch);
        for (const auto &st : status)
            EXPECT_EQ(st.error, "");
        return payloads;
    };

    Engine eng(EngineConfig{.jobs = 2, .cacheDir = dir});
    auto first = runBatch(eng);
    EXPECT_EQ(computed.load(), 4);
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i], "payload-" + std::to_string(i));

    // Warm: the payloads come back bit-exact with zero computation.
    Engine warm(EngineConfig{.jobs = 2, .cacheDir = dir});
    auto second = runBatch(warm);
    EXPECT_EQ(computed.load(), 4);
    EXPECT_EQ(first, second);
    EXPECT_NE(warm.cacheStatsLine().find("4 hits, 0 misses"),
              std::string::npos)
        << warm.cacheStatsLine();
}

// ---- the introspection registry ---------------------------------------

TEST(Registry, WorkloadsDeriveFromTheRelevanceMatrix)
{
    const auto &reg = workloadRegistry();
    ASSERT_EQ(reg.size(), 5u);
    for (const auto &info : reg) {
        EXPECT_EQ(info.name, cli::workloadName(info.workload));
        cli::Options opt;
        opt.workload = info.workload;
        EXPECT_EQ(info.options, cli::relevantScenarioKeys(opt))
            << info.name;
    }
}

TEST(Registry, ModelsDeriveFromTheModelRegistry)
{
    const auto models = modelRegistry();
    ASSERT_EQ(models.size(), knownModelNames().size());
    for (std::size_t i = 0; i < models.size(); ++i) {
        EXPECT_EQ(models[i].name, knownModelNames()[i]);
        cli::Options opt;
        opt.model = models[i].name;
        EXPECT_EQ(models[i].options, cli::relevantScenarioKeys(opt));
    }
}

TEST(Registry, SweepableKeysRoundTripThroughTheGrammar)
{
    // The no-drift gate: every advertised key is accepted by the
    // option grammar (its own canonical value round-trips), and the
    // grammar accepts nothing the registry does not advertise --
    // every relevance-matrix key and every fabric key is advertised.
    const auto keys = sweepableOptionKeys();
    for (const auto &key : keys) {
        cli::Options opt;
        const std::string value = cli::optionValueText(opt, key);
        EXPECT_TRUE(
            cli::applyScenarioOption(opt, key, value).empty())
            << key << "=" << value;
    }

    // Off the default, each key's text rule must print exactly the
    // value its parse rule read: one non-default value per key.
    const std::pair<const char *, const char *> off_default[] = {
        {"workload", "sddmm-window"}, {"model", "resnet50"},
        {"m", "96"},                  {"k", "80"},
        {"n", "48"},                  {"sparsity", "0.35"},
        {"nm", "3:8"},                {"window", "32"},
        {"seed", "9223372036854775807"},
        {"rows", "4"},                {"cols", "16"},
        {"spad", "8"},                {"tag-banks", "4"},
        {"spad-flush", "adaptive"},   {"dmem", "512"},
        {"clock-ghz", "1.25"},
    };
    std::vector<std::string> covered;
    for (const auto &[key, value] : off_default) {
        cli::Options opt;
        EXPECT_NE(cli::optionValueText(opt, key), value) << key;
        EXPECT_TRUE(cli::applyScenarioOption(opt, key, value).empty())
            << key << "=" << value;
        EXPECT_EQ(cli::optionValueText(opt, key), value) << key;
        covered.push_back(key);
    }
    EXPECT_EQ(covered, keys);

    cli::Options opt;
    EXPECT_FALSE(
        cli::applyScenarioOption(opt, "frobnicate", "1").empty());

    auto advertised = [&keys](const std::string &key) {
        return std::find(keys.begin(), keys.end(), key) != keys.end();
    };
    for (const auto &info : workloadRegistry())
        for (const auto &key : info.options)
            EXPECT_TRUE(advertised(key)) << key;
    for (const auto &model : modelRegistry())
        for (const auto &key : model.options)
            EXPECT_TRUE(advertised(key)) << key;
    for (const auto &key : cli::fabricOptionKeys())
        EXPECT_TRUE(advertised(key)) << key;
}

TEST(Registry, ListTextNamesEverythingRunnable)
{
    const std::string text = listText();
    for (const auto &info : workloadRegistry())
        EXPECT_NE(text.find(info.name), std::string::npos)
            << info.name;
    for (const auto &model : modelRegistry())
        EXPECT_NE(text.find(model.name), std::string::npos)
            << model.name;
    for (const auto &arch : archRegistry())
        EXPECT_NE(text.find(arch), std::string::npos) << arch;
    for (const auto &key : sweepableOptionKeys())
        EXPECT_NE(text.find(key), std::string::npos) << key;
}

} // namespace
} // namespace engine
} // namespace canon
