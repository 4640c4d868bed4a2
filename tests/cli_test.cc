/**
 * @file
 * canonsim driver tests: option parsing (both --key value and
 * --key=value spellings), rejection of malformed input, end-to-end
 * smoke runs of each kernel family through the driver, and the
 * --list vocabulary's no-drift guarantees.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <limits>
#include <sstream>

#include "argv.hh"
#include "cache/key.hh"
#include "cli/driver.hh"
#include "cli/options.hh"
#include "engine/engine.hh"
#include "fuzz.hh"
#include "runner/sweep.hh"

namespace canon
{
namespace cli
{
namespace
{

ParseResult
parse(std::initializer_list<std::string> args)
{
    return parseArgs(std::vector<std::string>(args));
}

/** The names of @p archs, in table order, comma-separated. */
std::string
archNames(ArchSet archs)
{
    std::string out;
    for (const ArchInfo &row : kArchTable)
        if (archs.contains(row.arch))
            out.append(out.empty() ? "" : ",").append(row.name);
    return out;
}

// ---- parsing ----------------------------------------------------------

TEST(CliOptions, DefaultsAreSpmmOnCanonPaperFabric)
{
    auto res = parse({});
    ASSERT_TRUE(res.ok) << res.error;
    const Options &o = res.options;
    EXPECT_EQ(o.workload, Workload::Spmm);
    EXPECT_EQ(archNames(o.archs), "canon");
    EXPECT_EQ(archNames(Options{}.archs), "canon");

    const CanonConfig cfg = o.fabric;
    const CanonConfig paper = CanonConfig::paper();
    EXPECT_EQ(cfg.rows, paper.rows);
    EXPECT_EQ(cfg.cols, paper.cols);
    EXPECT_EQ(cfg.spadEntries, paper.spadEntries);
    EXPECT_EQ(cfg.dmemSlots, paper.dmemSlots);
}

TEST(CliOptions, ParsesEveryWorkloadName)
{
    const std::pair<const char *, Workload> cases[] = {
        {"gemm", Workload::Gemm},
        {"dense", Workload::Gemm},
        {"spmm", Workload::Spmm},
        {"spmm-nm", Workload::SpmmNm},
        {"nm", Workload::SpmmNm},
        {"sddmm", Workload::Sddmm},
        {"sddmm-window", Workload::SddmmWindow},
    };
    for (const auto &[name, wl] : cases) {
        auto res = parse({"--workload", name});
        ASSERT_TRUE(res.ok) << name << ": " << res.error;
        EXPECT_EQ(res.options.workload, wl) << name;
    }
}

TEST(CliOptions, AcceptsBothOptionSpellings)
{
    auto spaced = parse({"--m", "128", "--k", "64", "--n", "32"});
    auto equals = parse({"--m=128", "--k=64", "--n=32"});
    ASSERT_TRUE(spaced.ok) << spaced.error;
    ASSERT_TRUE(equals.ok) << equals.error;
    EXPECT_EQ(spaced.options.m, 128);
    EXPECT_EQ(equals.options.m, 128);
    EXPECT_EQ(equals.options.k, 64);
    EXPECT_EQ(equals.options.n, 32);
}

TEST(CliOptions, ParsesFabricAndModeOptions)
{
    auto res = parse({"--rows=4", "--cols=16", "--spad=32",
                      "--dmem=512", "--clock-ghz=1.5",
                      "--arch=canon,zed", "--sparsity=0.9",
                      "--seed=42", "--csv=/tmp/out.csv"});
    ASSERT_TRUE(res.ok) << res.error;
    const Options &o = res.options;
    EXPECT_EQ(o.fabric.rows, 4);
    EXPECT_EQ(o.fabric.cols, 16);
    EXPECT_EQ(o.fabric.spadEntries, 32);
    EXPECT_EQ(o.fabric.dmemSlots, 512);
    EXPECT_DOUBLE_EQ(o.fabric.clockGhz, 1.5);
    EXPECT_EQ(archNames(o.archs), "canon,zed");
    EXPECT_DOUBLE_EQ(o.sparsity, 0.9);
    EXPECT_EQ(o.seed, 42u);
    EXPECT_EQ(o.csvPath, "/tmp/out.csv");
}

TEST(CliOptions, ParsesTagBanksAndSpadFlush)
{
    auto res = parse({"--tag-banks=8", "--spad-flush=adaptive"});
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.options.fabric.tagBanks, 8);
    EXPECT_EQ(res.options.fabric.spadFlush,
              SpadFlushPolicy::Adaptive);

    // Defaults stay on the linear-search / flush-at-cap baseline.
    auto dflt = parse({});
    ASSERT_TRUE(dflt.ok) << dflt.error;
    EXPECT_EQ(dflt.options.fabric.tagBanks, 1);
    EXPECT_EQ(dflt.options.fabric.spadFlush,
              SpadFlushPolicy::Eager);

    for (const char *bad :
         {"--tag-banks=0", "--tag-banks=65", "--tag-banks=lots"})
        EXPECT_FALSE(parse({bad}).ok) << bad;
    auto flush = parse({"--spad-flush", "lazy"});
    ASSERT_FALSE(flush.ok);
    EXPECT_NE(flush.error.find("eager | adaptive"),
              std::string::npos)
        << flush.error;
}

TEST(CliOptions, ArchAllExpandsToEveryArchitecture)
{
    auto res = parse({"--arch", "all"});
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(archNames(res.options.archs),
              "canon,systolic,systolic24,zed,cgra");

    ArchSet out{};
    ASSERT_EQ(selectArchs({"all"}, out), "");
    for (const ArchInfo &row : kArchTable)
        EXPECT_TRUE(out.contains(row.arch)) << row.name;
    // Repeats and "all" combine; order does not matter.
    ASSERT_EQ(selectArchs({"zed", "canon", "zed"}, out), "");
    EXPECT_EQ(archNames(out), "canon,zed");
}

TEST(CliOptions, ArchSelectionErrorsComeFromTheTable)
{
    ArchSet out{Arch::Cgra};
    EXPECT_EQ(selectArchs({"tpu"}, out),
              "unknown architecture 'tpu' (canon, systolic, systolic24,"
              " zed, cgra, all)");
    EXPECT_EQ(selectArchs({}, out),
              "option '--arch' expects at least one architecture");
    EXPECT_EQ(archNames(out), "cgra"); // untouched on error
    EXPECT_FALSE(parse({"--arch="}).ok);
    EXPECT_FALSE(parse({"--arch", ","}).ok);
    EXPECT_EQ(archNames(parse({"--arch", "zed,"}).options.archs), "zed");
}

TEST(ArchTable, EveryArchRoundTripsThroughItsName)
{
    for (std::size_t i = 0; i < kArchCount; ++i) {
        const ArchInfo &row = kArchTable[i];
        EXPECT_EQ(static_cast<std::size_t>(row.arch), i) << row.name;
        EXPECT_EQ(archByName(archName(row.arch)), row.arch) << row.name;
        EXPECT_STREQ(archLabel(row.arch), row.label);
    }
    for (const char *name : {"", "all", "Canon", "systolic2", "tpu"})
        EXPECT_FALSE(archByName(name).has_value()) << name;
    EXPECT_TRUE(ArchSet::all().contains(Arch::Cgra));
    EXPECT_TRUE(ArchSet{}.empty());
}

TEST(CliOptions, ParsesNmPattern)
{
    auto res = parse({"--workload", "spmm-nm", "--nm", "1:8"});
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.options.nmN, 1);
    EXPECT_EQ(res.options.nmM, 8);
}

TEST(CliOptions, RejectsUnknownWorkload)
{
    auto res = parse({"--workload", "conv3d"});
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("conv3d"), std::string::npos);
}

TEST(CliOptions, RejectsMalformedDimensions)
{
    for (const char *bad : {"abc", "-4", "0", "12x", "", "1.5"}) {
        auto res = parse({"--m", bad});
        EXPECT_FALSE(res.ok) << "'" << bad << "' should be rejected";
    }
}

TEST(CliOptions, RejectsBadSparsityAndClock)
{
    EXPECT_FALSE(parse({"--sparsity", "1.0"}).ok);
    EXPECT_FALSE(parse({"--sparsity", "-0.1"}).ok);
    EXPECT_FALSE(parse({"--sparsity", "dense"}).ok);
    EXPECT_FALSE(parse({"--clock-ghz", "0"}).ok);
}

TEST(CliOptions, FabricOptionsAcceptOnlyFabricsThatRun)
{
    // CanonFabric takes at most 256 psum entries and 1024 dmem slots;
    // rows and cols stop at 64. Past a bound, a flag is a parse error
    // and a sweep axis a usage error (exit 2), both with the range.
    const struct
    {
        const char *key, *bad, *range;
    } cases[] = {
        {"spad", "300", "[1, 256]"},
        {"dmem", "1025", "[1, 1024]"},
        {"rows", "65", "[1, 64]"},
        {"cols", "65", "[1, 64]"},
    };
    for (const auto &c : cases) {
        const std::string key = c.key;
        const std::string message = "option '--" + key +
                                    "' expects an integer in " + c.range +
                                    ", got '" + c.bad + "'";
        const auto flag = parse({"--" + key, c.bad});
        EXPECT_FALSE(flag.ok) << key;
        EXPECT_NE(flag.error.find(message), std::string::npos)
            << flag.error;

        const auto sweep =
            parse({"--sweep", key + "=4," + c.bad, "--m", "16", "--k",
                   "16", "--n", "16"});
        ASSERT_TRUE(sweep.ok) << sweep.error; // validated by the runner
        std::ostringstream out, err;
        EXPECT_EQ(runScenario(sweep.options, out, err), 2) << key;
        EXPECT_NE(err.str().find(message), std::string::npos) << err.str();
        EXPECT_TRUE(out.str().empty()) << out.str();
    }
    // The bounds themselves run.
    EXPECT_TRUE(parse({"--spad", "256", "--dmem", "1024", "--rows", "64",
                       "--cols", "64"})
                    .ok);
}

TEST(CliOptions, RejectsBadNmPattern)
{
    EXPECT_FALSE(parse({"--nm", "4"}).ok);
    EXPECT_FALSE(parse({"--nm", "4:2"}).ok);
    EXPECT_FALSE(parse({"--nm", "0:4"}).ok);
    EXPECT_FALSE(parse({"--nm", "a:b"}).ok);
}

TEST(CliOptions, RejectsUnknownOptionArchAndMissingValue)
{
    EXPECT_FALSE(parse({"--frobnicate", "1"}).ok);
    EXPECT_FALSE(parse({"--arch", "tpu"}).ok);
    EXPECT_FALSE(parse({"--m"}).ok);
}

TEST(CliOptions, ValuelessFlagsRejectAValue)
{
    // --dry-run=no must not run a dry run, nor --help=no show help.
    for (const std::string flag : {"help", "list", "dry-run", "probe-spad",
                                   "cycle-accounting", "host-timers"}) {
        const auto res = parse({"--" + flag + "=no"});
        EXPECT_FALSE(res.ok) << flag;
        EXPECT_EQ(res.error, "option '--" + flag + "' takes no value");
    }
    EXPECT_EQ(parse({"-h=no"}).error, "option '--help' takes no value");
    EXPECT_TRUE(parse({"-h"}).options.showHelp);
}

TEST(CliOptions, CsvPathIsCheckedAtParseTime)
{
    // Like the obs output paths: a bad --csv fails before anything
    // simulates, not after the table is printed.
    const auto res = parse({"--csv", "/nonexistent-dir/x.csv"});
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "option '--csv': directory '/nonexistent-dir'"
                         " does not exist");
    const auto ok = parse({"--csv", ::testing::TempDir() + "x.csv"});
    EXPECT_TRUE(ok.ok) << ok.error;
}

TEST(CliOptions, ParsesSweepAxesAndJobs)
{
    auto res = parse({"--sweep", "sparsity=0.5,0.7,0.9",
                      "--sweep=rows=4,8", "--jobs", "4"});
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.options.sweepAxes.size(), 2u);
    EXPECT_EQ(res.options.sweepAxes[0].first, "sparsity");
    EXPECT_EQ(res.options.sweepAxes[0].second, "0.5,0.7,0.9");
    EXPECT_EQ(res.options.sweepAxes[1].first, "rows");
    EXPECT_EQ(res.options.sweepAxes[1].second, "4,8");
    EXPECT_EQ(res.options.common.jobs, 4);
}

TEST(CliOptions, RejectsMalformedSweepAndJobs)
{
    EXPECT_FALSE(parse({"--sweep", "sparsity"}).ok);  // no '='
    EXPECT_FALSE(parse({"--sweep", "=0.5"}).ok);      // empty key
    EXPECT_FALSE(parse({"--sweep", "sparsity="}).ok); // empty values
    EXPECT_FALSE(parse({"--jobs", "0"}).ok);
    EXPECT_FALSE(parse({"--jobs", "257"}).ok);
    EXPECT_FALSE(parse({"--jobs", "many"}).ok);
}

TEST(CliOptions, ParsesShardFlag)
{
    auto res = parse({"--shard", "1/4"});
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.options.common.shard.index, 1);
    EXPECT_EQ(res.options.common.shard.count, 4);
    EXPECT_FALSE(res.options.common.shard.whole());

    // Default: the whole job list.
    auto plain = parse({});
    ASSERT_TRUE(plain.ok);
    EXPECT_TRUE(plain.options.common.shard.whole());

    // The '=' spelling works like every other flag.
    auto eq = parse({"--shard=0/2"});
    ASSERT_TRUE(eq.ok) << eq.error;
    EXPECT_EQ(eq.options.common.shard.count, 2);
}

TEST(CliOptions, RejectsMalformedShard)
{
    EXPECT_FALSE(parse({"--shard", "2"}).ok);    // no '/'
    EXPECT_FALSE(parse({"--shard", "2/2"}).ok);  // index == count
    EXPECT_FALSE(parse({"--shard", "-1/2"}).ok); // negative index
    EXPECT_FALSE(parse({"--shard", "0/0"}).ok);  // zero count
    EXPECT_FALSE(parse({"--shard", "a/b"}).ok);  // not numbers
    EXPECT_FALSE(parse({"--shard", "1/9999"}).ok); // beyond kMaxShards
}

TEST(CliOptions, ShardIsNotSweepable)
{
    auto res = parse({"--sweep", "shard=0/2,1/2"});
    ASSERT_TRUE(res.ok) << res.error; // validated by the runner
    std::ostringstream out, err;
    EXPECT_EQ(runScenario(res.options, out, err), 2);
    EXPECT_NE(err.str().find("not sweepable"), std::string::npos)
        << err.str();
}

TEST(CliOptions, ParsesCacheFlags)
{
    auto res = parse({"--cache-dir", "/tmp/cache"});
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.options.common.cacheDir, "/tmp/cache");
    EXPECT_EQ(res.options.common.cacheMode, cache::Mode::ReadWrite);

    auto refresh =
        parse({"--cache-dir=/tmp/cache", "--cache=refresh"});
    ASSERT_TRUE(refresh.ok) << refresh.error;
    EXPECT_EQ(refresh.options.common.cacheMode, cache::Mode::Refresh);

    // Plain runs keep caching off entirely.
    auto plain = parse({});
    ASSERT_TRUE(plain.ok);
    EXPECT_TRUE(plain.options.common.cacheDir.empty());
}

TEST(CliOptions, RejectsBadCacheFlags)
{
    EXPECT_FALSE(parse({"--cache-dir", ""}).ok);
    EXPECT_FALSE(parse({"--cache-dir=/tmp/c", "--cache", "rw"}).ok);
    // --cache without a directory is a usage error, not a no-op.
    auto orphan = parse({"--cache", "read"});
    EXPECT_FALSE(orphan.ok);
    EXPECT_NE(orphan.error.find("--cache-dir"), std::string::npos);
}

TEST(CliOptions, CacheFlagsAreNotSweepable)
{
    for (const char *axis : {"cache=read,write", "cache-dir=a,b"}) {
        auto res = parse({"--sweep", axis});
        ASSERT_TRUE(res.ok) << res.error; // validated by the runner
        std::ostringstream out, err;
        EXPECT_EQ(runScenario(res.options, out, err), 2) << axis;
        EXPECT_NE(err.str().find("not sweepable"), std::string::npos)
            << err.str();
    }
}

TEST(CliOptions, TracksExplicitlySetScenarioKeys)
{
    auto res = parse({"--workload", "spmm", "--sparsity=0.5",
                      "--jobs", "2", "--arch", "canon"});
    ASSERT_TRUE(res.ok) << res.error;
    // Only scenario-grammar keys are tracked, not fixed flags.
    EXPECT_EQ(res.options.explicitKeys,
              (std::vector<std::string>{"workload", "sparsity"}));
}

// ---- workload/option relevance matrix ---------------------------------

TEST(CliRelevance, PerWorkloadKeySetsMatchTheGrammar)
{
    Options o;
    o.workload = Workload::Gemm;
    EXPECT_TRUE(optionRelevant(o, "m"));
    EXPECT_TRUE(optionRelevant(o, "seed"));
    EXPECT_FALSE(optionRelevant(o, "sparsity"));
    EXPECT_FALSE(optionRelevant(o, "nm"));
    EXPECT_FALSE(optionRelevant(o, "window"));

    o.workload = Workload::Spmm;
    EXPECT_TRUE(optionRelevant(o, "sparsity"));
    EXPECT_FALSE(optionRelevant(o, "nm"));

    o.workload = Workload::SpmmNm;
    EXPECT_TRUE(optionRelevant(o, "nm"));
    EXPECT_FALSE(optionRelevant(o, "sparsity"));

    o.workload = Workload::SddmmWindow;
    EXPECT_TRUE(optionRelevant(o, "window"));
    EXPECT_FALSE(optionRelevant(o, "n"));

    // Fabric keys and the model selector are always relevant.
    EXPECT_TRUE(optionRelevant(o, "rows"));
    EXPECT_TRUE(optionRelevant(o, "clock-ghz"));
    EXPECT_TRUE(optionRelevant(o, "model"));
}

TEST(CliRelevance, PolicyKeysAreFabricKeysEverywhere)
{
    // tag-banks / spad-flush shape the fabric like rows/spad do, so
    // they are relevant to every workload and every model, and they
    // round-trip through the sweep grammar.
    Options o;
    for (auto wl : {Workload::Gemm, Workload::Spmm, Workload::SpmmNm,
                    Workload::Sddmm, Workload::SddmmWindow}) {
        o.workload = wl;
        EXPECT_TRUE(optionRelevant(o, "tag-banks"));
        EXPECT_TRUE(optionRelevant(o, "spad-flush"));
    }
    o = Options{};
    o.model = "longformer";
    EXPECT_TRUE(optionRelevant(o, "tag-banks"));
    EXPECT_TRUE(optionRelevant(o, "spad-flush"));

    o = Options{};
    EXPECT_EQ(optionValueText(o, "tag-banks"), "1");
    EXPECT_EQ(optionValueText(o, "spad-flush"), "eager");
    EXPECT_TRUE(
        applyScenarioOption(o, "spad-flush", "adaptive").empty());
    EXPECT_EQ(optionValueText(o, "spad-flush"), "adaptive");
}

TEST(CliRelevance, PolicyAxesSweepCleanly)
{
    auto res = parse({"--workload", "spmm", "--m", "16", "--k", "16",
                      "--n", "16", "--sparsity", "0.5", "--rows",
                      "2", "--cols", "2", "--sweep", "tag-banks=1,4",
                      "--sweep", "spad-flush=eager,adaptive"});
    ASSERT_TRUE(res.ok) << res.error;
    std::ostringstream out, err;
    EXPECT_EQ(runScenario(res.options, out, err), 0) << err.str();
    EXPECT_EQ(err.str(), ""); // relevant axes: no ignored-key warning
}

TEST(CliRelevance, ModelRunsIgnoreShapeKeys)
{
    Options o;
    o.model = "llama8b-attn";
    EXPECT_FALSE(optionRelevant(o, "m"));
    EXPECT_FALSE(optionRelevant(o, "workload"));
    EXPECT_TRUE(optionRelevant(o, "sparsity")); // has a knob
    EXPECT_TRUE(optionRelevant(o, "seed"));

    o.model = "longformer"; // purely window-structured: no knob
    EXPECT_FALSE(optionRelevant(o, "sparsity"));
}

TEST(CliRelevance, SingleRunsWarnOnIgnoredOptions)
{
    auto res = parse({"--workload", "spmm", "--nm", "2:8", "--m",
                      "16", "--k", "16", "--n", "16"});
    ASSERT_TRUE(res.ok) << res.error;
    std::ostringstream out, err;
    EXPECT_EQ(runScenario(res.options, out, err), 0); // warn, not fail
    EXPECT_NE(err.str().find("option '--nm' is ignored by workload"
                             " 'spmm'"),
              std::string::npos)
        << err.str();

    auto win = parse({"--workload", "gemm", "--window", "32", "--m",
                      "16", "--k", "16", "--n", "16"});
    ASSERT_TRUE(win.ok) << win.error;
    std::ostringstream wout, werr;
    EXPECT_EQ(runScenario(win.options, wout, werr), 0);
    EXPECT_NE(werr.str().find("'--window' is ignored"),
              std::string::npos)
        << werr.str();

    // Relevant options stay silent.
    auto clean = parse({"--workload", "spmm", "--sparsity", "0.5",
                        "--m", "16", "--k", "16", "--n", "16"});
    ASSERT_TRUE(clean.ok) << clean.error;
    std::ostringstream cout_, cerr_;
    EXPECT_EQ(runScenario(clean.options, cout_, cerr_), 0);
    EXPECT_EQ(cerr_.str(), "");
}

TEST(CliRelevance, SweepsRejectAxesNoScenarioConsumes)
{
    // gemm never reads sparsity: the sweep would emit 3 identical
    // row groups, so it is rejected up front.
    auto res = parse({"--workload", "gemm", "--m", "16", "--k", "16",
                      "--n", "16", "--sweep",
                      "sparsity=0.3,0.5,0.7"});
    ASSERT_TRUE(res.ok) << res.error;
    std::ostringstream out, err;
    EXPECT_EQ(runScenario(res.options, out, err), 2);
    EXPECT_NE(err.str().find("has no effect"), std::string::npos)
        << err.str();

    // A workload axis that includes a consumer legitimizes the axis.
    auto mixed = parse({"--m", "16", "--k", "16", "--n", "16",
                        "--sweep", "workload=gemm,spmm", "--sweep",
                        "sparsity=0.3,0.7"});
    ASSERT_TRUE(mixed.ok) << mixed.error;
    std::ostringstream mout, merr;
    EXPECT_EQ(runScenario(mixed.options, mout, merr), 0)
        << merr.str();

    // A window-model-only sweep over sparsity is just as dead.
    auto model = parse({"--model", "longformer", "--sweep",
                        "sparsity=0.3,0.7"});
    ASSERT_TRUE(model.ok) << model.error;
    std::ostringstream oout, oerr;
    EXPECT_EQ(runScenario(model.options, oout, oerr), 2);
    EXPECT_NE(oerr.str().find("has no effect"), std::string::npos)
        << oerr.str();
}

TEST(CliOptions, ParsesKnownModelAndRejectsUnknown)
{
    auto res = parse({"--model", "llama8b-attn"});
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.options.model, "llama8b-attn");
    EXPECT_EQ(res.options.workloadLabel(), "llama8b-attn model");

    auto none = parse({"--model", "llama8b-attn", "--model", "none"});
    ASSERT_TRUE(none.ok) << none.error;
    EXPECT_EQ(none.options.model, "");

    auto bad = parse({"--model", "gpt5"});
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("gpt5"), std::string::npos);
}

// ---- end-to-end smoke runs -------------------------------------------

Options
smokeOptions(Workload wl)
{
    Options o;
    o.workload = wl;
    o.m = 32;
    o.k = 32;
    o.n = 32;
    o.window = 16;
    o.sparsity = 0.5;
    return o;
}

TEST(CliDriver, DenseCadenceSmokeRun)
{
    const Options o = smokeOptions(Workload::Gemm);
    CaseResult r = engine::runScenarioCases(o);
    ASSERT_EQ(r.count(Arch::Canon), 1u);
    const ExecutionProfile &p = r.at(Arch::Canon);
    EXPECT_GT(p.cycles, 0u);
    // Dense 32x32x32 INT8 GEMM: exactly m*k*n lane MACs.
    EXPECT_EQ(p.get(Activity::LaneMacs), 32u * 32u * 32u);
}

TEST(CliDriver, SpmmSmokeRun)
{
    const Options o = smokeOptions(Workload::Spmm);
    CaseResult r = engine::runScenarioCases(o);
    ASSERT_EQ(r.count(Arch::Canon), 1u);
    const ExecutionProfile &p = r.at(Arch::Canon);
    EXPECT_GT(p.cycles, 0u);
    EXPECT_GT(p.get(Activity::LaneMacs), 0u);
    // Half-sparse input must do fewer MACs than the dense run.
    EXPECT_LT(p.get(Activity::LaneMacs), 32u * 32u * 32u);
}

TEST(CliDriver, SddmmSmokeRun)
{
    const Options o = smokeOptions(Workload::Sddmm);
    CaseResult r = engine::runScenarioCases(o);
    ASSERT_EQ(r.count(Arch::Canon), 1u);
    EXPECT_GT(r.at(Arch::Canon).cycles, 0u);
    EXPECT_GT(r.at(Arch::Canon).get(Activity::LaneMacs), 0u);
}

TEST(CliDriver, BaselineComparisonIncludesRequestedArchs)
{
    Options o = smokeOptions(Workload::Spmm);
    o.archs = {Arch::Canon, Arch::Systolic, Arch::Zed};
    CaseResult r = engine::runScenarioCases(o);
    EXPECT_EQ(r.count(Arch::Canon), 1u);
    EXPECT_EQ(r.count(Arch::Systolic), 1u);
    EXPECT_EQ(r.count(Arch::Zed), 1u);
    EXPECT_EQ(r.count(Arch::Cgra), 0u); // not requested
}

TEST(CliDriver, BaselineOnlyRunSkipsCanonSimulation)
{
    Options o = smokeOptions(Workload::Spmm);
    o.archs = {Arch::Systolic, Arch::Cgra};
    CaseResult r = engine::runScenarioCases(o);
    EXPECT_EQ(r.count(Arch::Canon), 0u);
    EXPECT_EQ(r.count(Arch::Systolic), 1u);
    EXPECT_EQ(r.count(Arch::Cgra), 1u);

    // The suite itself must not have computed the unselected archs.
    ArchSuite suite(o.fabric, o.archs);
    CaseResult direct =
        suite.run({"spmm", Workload::Spmm, 32, 32, 32, 0.5}, 1);
    EXPECT_EQ(direct.count(Arch::Canon), 0u);
    EXPECT_EQ(direct.count(Arch::Zed), 0u);
    EXPECT_EQ(direct.count(Arch::Systolic), 1u);
}

TEST(CliDriver, ModelRunAccumulatesLayersOnCanon)
{
    Options o;
    o.model = "llama8b-attn";
    o.sparsity = 0.9;
    o.archs = {Arch::Canon};
    CaseResult r = engine::runScenarioCases(o);
    ASSERT_EQ(r.count(Arch::Canon), 1u);
    EXPECT_GT(r.at(Arch::Canon).cycles, 0u);
    EXPECT_GT(r.at(Arch::Canon).get(Activity::LaneMacs), 0u);
    EXPECT_EQ(r.at(Arch::Canon).workload, "Llama8B-Attn");
}

TEST(CliDriver, RunScenarioWritesReportToGivenStream)
{
    Options o = smokeOptions(Workload::Spmm);
    std::ostringstream out, err;
    EXPECT_EQ(runScenario(o, out, err), 0);
    EXPECT_EQ(err.str(), "");
    EXPECT_NE(out.str().find("=== canonsim: spmm"),
              std::string::npos);
}

TEST(CliDriver, RunScenarioReportsCsvFailureOnErrStream)
{
    Options o = smokeOptions(Workload::Spmm);
    o.csvPath = "/nonexistent-dir/x.csv";
    std::ostringstream out, err;
    EXPECT_EQ(runScenario(o, out, err), 1);
    EXPECT_NE(err.str().find("cannot write CSV"), std::string::npos);
}

TEST(CliDriver, CsvQuotesThousandsSeparatedCells)
{
    Table t("csv quoting");
    t.header({"Arch", "Cycles", "Note"});
    t.addRow({"canon", Table::fmtInt(1'253'184), "say \"hi\""});

    const std::string path =
        ::testing::TempDir() + "cli_test_quoting.csv";
    ASSERT_TRUE(t.writeCsv(path));

    std::ifstream f(path);
    std::string header, row;
    ASSERT_TRUE(std::getline(f, header));
    ASSERT_TRUE(std::getline(f, row));
    EXPECT_EQ(header, "Arch,Cycles,Note");
    // fmtInt's separators must be quoted, embedded quotes doubled.
    EXPECT_EQ(row, "canon,\"1,253,184\",\"say \"\"hi\"\"\"");
}

TEST(CliDriver, CsvWriteFailureIsReported)
{
    Table t("unwritable");
    t.header({"A"});
    t.addRow({"1"});
    EXPECT_FALSE(t.writeCsv("/nonexistent-dir/x.csv"));
}

TEST(CliDriver, StatsTableBuildsForComparisonRun)
{
    Options o = smokeOptions(Workload::Spmm);
    o.archs = {Arch::Canon, Arch::Systolic};
    CaseResult r = engine::runScenarioCases(o);
    // Throws on header/row width mismatch; building it is the check.
    Table t = engine::scenarioStatsTable(o, r);
    (void)t;
}

TEST(CliOptions, ParsesProbeSpadFlag)
{
    EXPECT_FALSE(parse({}).options.probeSpad);
    const auto res = parse({"--probe-spad"});
    ASSERT_TRUE(res.ok);
    EXPECT_TRUE(res.options.probeSpad);
}

TEST(CliDriver, ProbeSpadAppendsOccupancyColumns)
{
    Options o = smokeOptions(Workload::Spmm);
    o.archs = {Arch::Canon, Arch::Systolic};
    CaseResult r = engine::runScenarioCases(o);

    std::ostringstream base_csv;
    engine::scenarioStatsTable(o, r).writeCsv(base_csv);

    o.probeSpad = true;
    std::ostringstream probe_csv;
    engine::scenarioStatsTable(o, r).writeCsv(probe_csv);

    auto lines = [](const std::string &s) {
        std::vector<std::string> out;
        std::istringstream in(s);
        for (std::string l; std::getline(in, l);)
            out.push_back(l);
        return out;
    };
    const auto base = lines(base_csv.str());
    const auto probed = lines(probe_csv.str());
    ASSERT_EQ(base.size(), probed.size());

    // The probe table is the base table with three appended columns:
    // every base CSV line is a strict prefix of its probed line.
    EXPECT_NE(probed[0].find("SpadOcc"), std::string::npos);
    EXPECT_NE(probed[0].find("SpadCap%"), std::string::npos);
    EXPECT_NE(probed[0].find("Cmp/Probe"), std::string::npos);
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(probed[i].rfind(base[i], 0), 0u) << "line " << i;
        EXPECT_GT(probed[i].size(), base[i].size()) << "line " << i;
    }

    // Canon carries the occupancy counters; the baseline renders "X".
    ASSERT_GE(probed.size(), 3u);
    EXPECT_EQ(probed[1].find(",X,X,X"), std::string::npos)
        << "canon row should have numeric probe cells: " << probed[1];
    EXPECT_NE(probed[2].find("X,X,X"), std::string::npos)
        << "baseline row should render X probe cells: " << probed[2];
}

// ---- the --list vocabulary --------------------------------------------

TEST(Registry, WorkloadsDeriveFromTheRelevanceMatrix)
{
    const auto &table = workloadTable();
    ASSERT_EQ(table.size(), 5u);
    for (const auto &info : table) {
        EXPECT_EQ(info.name, workloadName(info.workload));
        Options opt;
        opt.workload = info.workload;
        EXPECT_EQ(info.options, relevantScenarioKeys(opt)) << info.name;
    }
}

TEST(Registry, ModelsDeriveFromTheModelRegistry)
{
    // The --list model section: one line per modelTable() entry,
    // in order, naming the keys relevantScenarioKeys() says it reads.
    std::istringstream in(listText());
    std::string line;
    while (std::getline(in, line) && line.rfind("Models", 0) != 0) {
    }
    std::vector<std::vector<std::string>> rows;
    while (std::getline(in, line) && !line.empty()) {
        std::istringstream words(line);
        rows.emplace_back(std::istream_iterator<std::string>(words),
                          std::istream_iterator<std::string>());
    }
    ASSERT_EQ(rows.size(), modelTable().size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        Options opt;
        opt.model = modelTable()[i].name;
        std::vector<std::string> expect = {opt.model};
        for (const auto &key : relevantScenarioKeys(opt))
            expect.push_back(key);
        EXPECT_EQ(rows[i], expect);
    }
}

TEST(Registry, SweepableKeysRoundTripThroughTheGrammar)
{
    // The no-drift gate: every advertised key is accepted by the
    // option grammar (its own canonical value round-trips), and the
    // grammar accepts nothing --list does not advertise -- every
    // relevance-matrix key and every fabric key is advertised.
    const auto &keys = scenarioOptionKeys();
    for (const auto &key : keys) {
        Options opt;
        const std::string value = optionValueText(opt, key);
        EXPECT_TRUE(applyScenarioOption(opt, key, value).empty())
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
        Options opt;
        EXPECT_NE(optionValueText(opt, key), value) << key;
        EXPECT_TRUE(applyScenarioOption(opt, key, value).empty())
            << key << "=" << value;
        EXPECT_EQ(optionValueText(opt, key), value) << key;
        covered.push_back(key);
    }
    EXPECT_EQ(covered, keys);

    Options opt;
    EXPECT_FALSE(applyScenarioOption(opt, "frobnicate", "1").empty());

    auto advertised = [&keys](const std::string &key) {
        return std::find(keys.begin(), keys.end(), key) != keys.end();
    };
    for (const auto &info : workloadTable())
        for (const auto &key : info.options)
            EXPECT_TRUE(advertised(key)) << key;
    for (const auto &m : modelTable()) {
        Options model;
        model.model = m.name;
        for (const auto &key : relevantScenarioKeys(model))
            EXPECT_TRUE(advertised(key)) << key;
    }
    for (const auto &key : fabricOptionKeys())
        EXPECT_TRUE(advertised(key)) << key;
}

TEST(Registry, ListTextNamesEverythingRunnable)
{
    const std::string text = listText();
    for (const auto &info : workloadTable())
        EXPECT_NE(text.find(info.name), std::string::npos)
            << info.name;
    for (const auto &m : modelTable())
        EXPECT_NE(text.find(m.name), std::string::npos) << m.name;
    EXPECT_NE(text.find("\nArchitectures (--arch A[,A...]): canon systolic"
                        " systolic24 zed cgra\n"),
              std::string::npos);
    for (const auto &key : scenarioOptionKeys())
        EXPECT_NE(text.find(key), std::string::npos) << key;
}

// ---- fuzzing the option grammar ---------------------------------------

/** Field-wise equality of everything a scenario option can set. */
bool
sameScenario(const Options &a, const Options &b)
{
    const CanonConfig &x = a.fabric, &y = b.fabric;
    return a.workload == b.workload && a.model == b.model &&
           a.m == b.m && a.k == b.k && a.n == b.n &&
           a.sparsity == b.sparsity && a.sparsitySet == b.sparsitySet &&
           a.nmN == b.nmN && a.nmM == b.nmM && a.window == b.window &&
           a.seed == b.seed && x.rows == y.rows && x.cols == y.cols &&
           x.spadEntries == y.spadEntries && x.tagBanks == y.tagBanks &&
           x.spadFlush == y.spadFlush && x.dmemSlots == y.dmemSlots &&
           x.clockGhz == y.clockGhz;
}

/** @p valid and fuzzInputs() around it, each also with a sign. */
std::vector<std::string>
signedFuzzInputs(const std::string &valid, std::uint64_t seed)
{
    std::vector<std::string> out = fuzzInputs(valid, seed);
    out.push_back(valid);
    const std::size_t n = out.size();
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back("-" + out[i]);
        out.push_back("+" + out[i]);
    }
    return out;
}

TEST(OptionFuzz, ScenarioGrammarNeverThrowsAndEqualValuesShareAKey)
{
    std::uint64_t seed = 40;
    for (const auto &key : scenarioOptionKeys()) {
        // Fuzz each key under a workload that consumes it, so its
        // value reaches the cache key.
        Options base;
        for (const auto &info : workloadTable())
            if (std::find(info.options.begin(), info.options.end(),
                          key) != info.options.end()) {
                base.workload = info.workload;
                break;
            }
        const std::string valid = optionValueText(base, key);

        struct Accepted
        {
            Options opt;
            std::string value;
            std::string digest;
        };
        std::vector<Accepted> distinct;
        for (const auto &value : signedFuzzInputs(valid, seed++)) {
            Options opt = base;
            std::string err, digest;
            EXPECT_NO_THROW(err = applyScenarioOption(opt, key, value))
                << key << "=" << value;
            EXPECT_NO_THROW(parseArgs({"--" + key, value}));
            EXPECT_NO_THROW(parseArgs({"--" + key + "=" + value}));
            EXPECT_NO_THROW(parseArgs({value, "--" + key}));
            runner::SweepSpec spec;
            EXPECT_NO_THROW(spec.addAxis(key, valid + "," + value));
            if (!err.empty())
                continue;
            EXPECT_NO_THROW(digest = cache::scenarioKey(opt).digest);
            // Two accepted values that set equal options are one
            // scenario, so they must be one cache entry.
            const auto same = std::find_if(
                distinct.begin(), distinct.end(),
                [&](const Accepted &a) { return sameScenario(a.opt, opt); });
            if (same == distinct.end())
                distinct.push_back({opt, value, digest});
            else
                EXPECT_EQ(digest, same->digest)
                    << key << "=" << value << " vs " << key << "="
                    << same->value;
        }
        EXPECT_FALSE(distinct.empty()) << key;
    }
}

/** canonicalDouble over iostreams, as options.cc first spelled it. */
std::string
streamCanonicalDouble(double v)
{
    for (int prec = 1; prec <= 17; ++prec) {
        std::ostringstream oss;
        oss << std::setprecision(prec) << v;
        double back = 0.0;
        std::istringstream iss(oss.str());
        if ((iss >> back) && back == v)
            return oss.str();
    }
    std::ostringstream oss;
    oss << std::setprecision(17) << v;
    return oss.str();
}

TEST(CanonicalDouble, MatchesTheStreamSpelling)
{
    // The text is part of every cache key, so the charconv version
    // must spell each double exactly as the stream version did: short
    // decimals like option values, uniform fractions, and raw bit
    // patterns (NaN, infinities, subnormals and 17-digit values).
    Rng rng(23);
    std::vector<double> values = {
        0.0, -0.0, 0.5, 0.1, 1.0 / 3.0, 1e-320,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    auto fromBits = [](std::uint64_t bits) {
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    };
    for (int i = 0; i < 85000; ++i)
        values.push_back(static_cast<double>(rng.nextRange(0, 999999)) /
                         std::pow(10.0, rng.nextRange(0, 9)));
    for (int i = 0; i < 10000; ++i)
        values.push_back(rng.nextDouble());
    for (int i = 0; i < 5000; ++i)
        values.push_back(fromBits(rng.next()));
    for (int i = 0; i < 1000; ++i) // subnormals
        values.push_back(fromBits(rng.next() >> 12));
    ASSERT_GE(values.size(), 100000u);
    for (const double v : values)
        EXPECT_EQ(canonicalDouble(v), streamCanonicalDouble(v))
            << std::hexfloat << v;
}

TEST(OptionFuzz, CommonFlagGrammarNeverThrows)
{
    const std::pair<const char *, const char *> flags[] = {
        {"--jobs", "4"},          {"--shard", "1/2"},
        {"--cache-dir", "d"},     {"--cache", "readwrite"},
        {"--sample-every", "100"}, {"--series-out", "s.csv"},
        {"--trace-out", "t.json"}, {"--stats-json", "j.json"},
        {"--cycle-accounting", ""}, {"--host-timers", ""},
    };
    std::uint64_t seed = 60;
    for (const auto &[flag, valid] : flags) {
        ASSERT_NE(commonRow(flag + 2), nullptr) << flag;
        for (const auto &value : signedFuzzInputs(valid, seed++)) {
            const std::string joined = std::string(flag) + "=" + value;
            engine::CommonFlags common;
            EXPECT_NO_THROW(parseCommon({flag, value}, common))
                << flag << " " << value;
            EXPECT_NO_THROW(parseCommon({joined}, common)) << joined;
            EXPECT_NO_THROW(engine::validateCommonFlags(common));
            EXPECT_NO_THROW(parseArgs({flag, value}));
            EXPECT_NO_THROW(parseArgs({joined}));
        }
    }
}

} // namespace
} // namespace cli
} // namespace canon
