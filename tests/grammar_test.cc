/**
 * @file
 * The one command-line grammar (engine::FlagSet) in all five places
 * that use it: the common flags, canonsim, the figure benches, canond
 * and canonctl. Every flag parses the same as "--k v" and "--k=v",
 * every flag that takes no value rejects "=v", and random argv
 * vectors never throw and parse the same when a flag is respelled.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "argv.hh"
#include "bench_util.hh"
#include "cli/options.hh"
#include "common/rng.hh"
#include "service/client.hh"
#include "service/daemon.hh"

namespace canon
{
namespace
{

std::string
describe(const engine::CommonFlags &f)
{
    std::ostringstream o;
    o << f.jobs << '|' << f.shard.index << '/' << f.shard.count << '|'
      << f.cacheDir << '|' << static_cast<int>(f.cacheMode)
      << f.cacheModeSet << '|' << f.obs.sampleEvery << '|'
      << f.obs.seriesOut << '|' << f.obs.traceOut << '|'
      << f.obs.statsJsonOut << '|' << f.obs.cycleAccounting
      << f.obs.hostTimers;
    return o.str();
}

std::string
describe(const cli::Options &opt)
{
    std::ostringstream o;
    o << describe(opt.common) << '|' << opt.sparsitySet;
    for (const auto &key : cli::scenarioOptionKeys())
        o << '|' << cli::optionValueText(opt, key);
    for (const ArchInfo &row : kArchTable)
        o << (opt.archs.contains(row.arch) ? row.name : "-");
    for (const auto &[key, values] : opt.sweepAxes)
        o << '|' << key << '=' << values;
    for (const auto &key : opt.explicitKeys)
        o << '|' << key;
    o << '|' << opt.csvPath << '|' << opt.showHelp << opt.listWorkloads
      << opt.dryRun << opt.probeSpad;
    return o.str();
}

/** One flag of a grammar and a value it accepts, if it takes one. */
struct FlagCase
{
    std::string name;
    std::optional<std::string> value;
};

/**
 * One of the five grammars: its flags, the arguments every vector
 * starts with (what the binary requires), and its parser, which
 * renders the error and everything parsed as one text.
 */
struct Grammar
{
    std::string name;
    std::vector<FlagCase> flags;
    std::vector<std::string> base;
    std::function<std::string(const std::vector<std::string> &)> parse;
};

const std::vector<FlagCase> kCommonCases = {
    {"jobs", "3"},          {"cache-dir", "cache"},
    {"cache", "read"},      {"shard", "1/2"},
    {"sample-every", "10"}, {"series-out", "s.csv"},
    {"trace-out", "t.json"}, {"stats-json", "j.json"},
    {"cycle-accounting", {}}, {"host-timers", {}},
};

std::vector<Grammar>
grammars()
{
    std::vector<FlagCase> canonsim = kCommonCases;
    canonsim.insert(canonsim.end(),
                    {{"help", {}},
                     {"list", {}},
                     {"dry-run", {}},
                     {"probe-spad", {}},
                     {"arch", "zed,canon"},
                     {"csv", "out.csv"},
                     {"sweep", "rows=4,8"}});
    // Every option-table key, at its default's canonical text.
    for (const auto &key : cli::scenarioOptionKeys())
        canonsim.push_back({key, cli::optionValueText({}, key)});

    std::vector<FlagCase> bench = kCommonCases;
    bench.push_back({"help", {}});

    return {
        {"common", kCommonCases, {},
         [](const std::vector<std::string> &args) {
             engine::CommonFlags f;
             std::string err = parseCommon(args, f);
             if (err.empty())
                 err = engine::validateCommonFlags(f);
             return err + "\n" + describe(f);
         }},
        {"canonsim", canonsim, {},
         [](const std::vector<std::string> &args) {
             const cli::ParseResult res = cli::parseArgs(args);
             return res.error + "\n" + describe(res.options);
         }},
        {"bench", bench, {},
         [](const std::vector<std::string> &args) {
             bench::BenchOptions opt;
             const std::string err = bench::parseBenchArgs(args, opt);
             return err + "\n" + describe(opt.common) +
                    (opt.showHelp ? "|help" : "");
         }},
        {"canond",
         {{"socket", "d.sock"},
          {"jobs", "3"},
          {"cache-dir", "cache"},
          {"cache", "read"},
          {"max-active", "5"},
          {"job-quota", "7"},
          {"drain-wait-ms", "0"},
          {"help", {}}},
         {"--socket", "s"},
         [](const std::vector<std::string> &args) {
             service::DaemonConfig cfg;
             bool help = false;
             const std::string err =
                 service::parseDaemonArgs(args, cfg, help);
             std::ostringstream o;
             o << err << "\n"
               << cfg.socketPath << '|' << cfg.engine.jobs << '|'
               << cfg.engine.cacheDir << '|'
               << static_cast<int>(cfg.engine.cacheMode) << '|'
               << cfg.maxActive << '|' << cfg.jobQuota << '|'
               << cfg.drainWaitMs << '|' << help;
             return o.str();
         }},
        {"canonctl",
         {{"socket", "d.sock"},
          {"client", "alice"},
          {"priority", "-3"},
          {"opt", "workload=gemm"},
          {"sweep", "seed=1,2"},
          {"arch", "all"},
          {"help", {}}},
         {"--socket", "s", "submit"},
         [](const std::vector<std::string> &args) {
             service::CtlArgs out;
             const std::string err = service::parseCtlArgs(args, out);
             std::ostringstream o;
             o << err << "\n"
               << out.socket << '|' << out.command << '|'
               << out.cancelId << '|' << out.showHelp << '|'
               << out.body.client << '|' << out.body.priority;
             for (const auto &e : out.body.entries)
                 o << '|' << static_cast<int>(e.kind) << e.key << '='
                   << e.value;
             return o.str();
         }},
    };
}

/** The "--name" words of a help text. */
std::set<std::string>
helpFlags(const std::string &text)
{
    std::set<std::string> names;
    const std::regex word("--([a-z][a-z-]*)");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), word);
         it != std::sregex_iterator(); ++it)
        names.insert((*it)[1]);
    return names;
}

std::set<std::string>
caseNames(const Grammar &g)
{
    std::set<std::string> names;
    for (const FlagCase &flag : g.flags)
        names.insert(flag.name);
    return names;
}

TEST(Grammar, TheCasesCoverEveryDocumentedFlag)
{
    const auto all = grammars();
    EXPECT_EQ(caseNames(all[1]), helpFlags(cli::usageText()));
    EXPECT_EQ(caseNames(all[2]), helpFlags(bench::benchUsageText()));
    for (const FlagCase &flag : kCommonCases) {
        ASSERT_NE(commonRow(flag.name), nullptr) << flag.name;
        EXPECT_EQ(commonRow(flag.name)->takesValue, flag.value.has_value())
            << flag.name;
    }
    EXPECT_EQ(engine::commonFlags().size(), kCommonCases.size());
}

TEST(Grammar, EveryFlagParsesTheSameInBothSpellings)
{
    for (const Grammar &g : grammars()) {
        std::vector<std::string> split = g.base, joined = g.base;
        for (const FlagCase &flag : g.flags) {
            const std::string dashed = "--" + flag.name;
            std::vector<std::string> one = g.base;
            if (!flag.value) {
                one.push_back(dashed);
                EXPECT_EQ(g.parse(one).find('\n'), 0u)
                    << g.name << " " << dashed;
                one.back() += "=v";
                EXPECT_EQ(g.parse(one).rfind(
                              "option '" + dashed + "' takes no value\n", 0),
                          0u)
                    << g.name << " " << dashed;
                continue;
            }
            // Alone, a flag may fail a cross-flag check, but in both
            // spellings alike.
            one.insert(one.end(), {dashed, *flag.value});
            const std::string spaced = g.parse(one);
            one.resize(g.base.size());
            one.push_back(dashed + "=" + *flag.value);
            EXPECT_EQ(g.parse(one), spaced) << g.name << " " << dashed;
            EXPECT_EQ(spaced.find("unknown option"), std::string::npos)
                << g.name << ": " << spaced;
            split.insert(split.end(), {dashed, *flag.value});
            joined.push_back(dashed + "=" + *flag.value);
        }
        // Every value flag at once parses cleanly, in both spellings.
        const std::string all = g.parse(split);
        EXPECT_EQ(all.find('\n'), 0u) << g.name << ": " << all;
        EXPECT_EQ(g.parse(joined), all) << g.name;
        EXPECT_NE(all, g.parse(g.base)) << g.name;
    }
}

/**
 * A random argv over @p g's flags: table names with values (valid,
 * empty, '=' splits, junk and flag-like text), value-less flags with
 * and without "=v", positionals and unknown options. A value flag
 * missing its value comes only last, so every value is where its
 * flag expects it. @p flip picks each value flag's spelling, so the
 * two spellings of one draw must parse the same.
 */
std::vector<std::string>
randomArgv(const Grammar &g, std::uint64_t seed, bool flip)
{
    static const char *const kValues[] = {
        "", "=", "a=b", "--jobs", "-h", "-1", "0", "junk", "1/2",
        "read", "none", "x.csv"};
    static const char *const kPositionals[] = {
        "", "=", "a=b", "junk", "submit", "list", "cancel", "42", "x"};
    static const char *const kUnknown[] = {
        "--", "-", "-x", "--bogus", "--bogus=1", "--=", "---jobs"};
    Rng rng(seed);
    auto pick = [&rng](const auto &list) {
        return std::string(list[rng.nextBounded(std::size(list))]);
    };

    std::vector<std::string> args = g.base;
    const std::size_t items = rng.nextBounded(9);
    for (std::size_t i = 0; i < items; ++i) {
        const std::uint64_t kind = rng.nextBounded(20);
        if (kind < 12) {
            const FlagCase &flag = g.flags[rng.nextBounded(g.flags.size())];
            const std::string dashed = "--" + flag.name;
            if (!flag.value) {
                args.push_back(rng.nextBounded(8) == 0
                                   ? dashed + "=" + pick(kValues)
                                   : dashed);
                continue;
            }
            const std::string value =
                rng.nextBounded(2) == 0 ? *flag.value : pick(kValues);
            if ((rng.nextBounded(2) == 0) != flip)
                args.insert(args.end(), {dashed, value});
            else
                args.push_back(dashed + "=" + value);
        } else if (kind < 15) {
            args.push_back(pick(kPositionals));
        } else if (kind < 17) {
            args.push_back(pick(kUnknown));
        } else if (kind < 19) {
            args.push_back("-h");
        } else {
            const FlagCase &flag = g.flags[rng.nextBounded(g.flags.size())];
            args.push_back("--" + flag.name);
            if (flag.value)
                break; // missing its value: only last
        }
    }
    return args;
}

TEST(Grammar, RandomArgvNeverThrowsAndIgnoresSpelling)
{
    // 2,000 vectors per grammar, 10,000 in all, each parsed in both
    // spellings of its value flags.
    std::uint64_t seed = 3300;
    for (const Grammar &g : grammars()) {
        std::set<std::string> errors;
        for (int i = 0; i < 2000; ++i, ++seed) {
            const auto a = randomArgv(g, seed, false);
            const auto b = randomArgv(g, seed, true);
            std::string ra, rb;
            EXPECT_NO_THROW(ra = g.parse(a)) << g.name;
            EXPECT_NO_THROW(rb = g.parse(b)) << g.name;
            EXPECT_EQ(ra, rb) << g.name << " seed " << seed;
            errors.insert(ra.substr(0, ra.find('\n')));
        }
        // The draws reach both success and the tokenizer's errors.
        EXPECT_TRUE(errors.contains("")) << g.name;
        EXPECT_TRUE(errors.contains("unknown option '--bogus' (see --help)"))
            << g.name;
    }
}

} // namespace
} // namespace canon
