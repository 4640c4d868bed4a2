/**
 * @file
 * Result-cache tests: key canonicalization through the relevance
 * matrix, payload codec round-trips, store semantics (modes, atomic
 * publication, collision verification, concurrent shared
 * directories), the pool's cached execution paths, and the canonsim
 * end-to-end contracts -- warm reruns execute zero simulation jobs
 * with byte-identical CSVs, interrupted sweeps resume from their
 * cache directory, and concurrent shards share one directory
 * cleanly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cache/key.hh"
#include "cache/mode.hh"
#include "cache/payload.hh"
#include "cache/store.hh"
#include "cli/driver.hh"
#include "cli/options.hh"
#include "engine/engine.hh"
#include "fuzz.hh"
#include "runner/pool.hh"
#include "runner/sweep.hh"

namespace canon
{
namespace cache
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

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

std::size_t
entryCount(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".entry")
            ++n;
    return n;
}

// ---- keys -------------------------------------------------------------

TEST(ScenarioKeyTest, IrrelevantOptionsDoNotChangeTheKey)
{
    cli::Options a;
    a.workload = cli::Workload::Spmm;
    cli::Options b = a;
    b.nmN = 1;
    b.nmM = 8;     // spmm ignores --nm
    b.window = 99; // and --window
    EXPECT_EQ(scenarioKey(a).canonical, scenarioKey(b).canonical);

    cli::Options c = a;
    c.sparsity = 0.9; // but consumes --sparsity
    EXPECT_NE(scenarioKey(a).canonical, scenarioKey(c).canonical);

    cli::Options nm = a;
    nm.workload = cli::Workload::SpmmNm; // spmm-nm: nm yes, sparsity no
    cli::Options nm2 = nm;
    nm2.sparsity = 0.9;
    EXPECT_EQ(scenarioKey(nm).canonical, scenarioKey(nm2).canonical);
    nm2.nmM = 8;
    EXPECT_NE(scenarioKey(nm).canonical, scenarioKey(nm2).canonical);
}

TEST(ScenarioKeyTest, SddmmWindowIgnoresN)
{
    cli::Options a;
    a.workload = cli::Workload::SddmmWindow;
    cli::Options b = a;
    b.n = 4096; // sddmm-window has no N
    EXPECT_EQ(scenarioKey(a).canonical, scenarioKey(b).canonical);
    b.window = 128;
    EXPECT_NE(scenarioKey(a).canonical, scenarioKey(b).canonical);
}

TEST(ScenarioKeyTest, ArchSetIsOrderAndDuplicateInsensitive)
{
    cli::Options a;
    a.archs = {"systolic", "canon"};
    cli::Options b;
    b.archs = {"canon", "systolic", "canon"};
    EXPECT_EQ(scenarioKey(a).canonical, scenarioKey(b).canonical);

    cli::Options c;
    c.archs = {"canon"};
    cli::Options d; // empty archs = canon only, per the contract
    EXPECT_EQ(scenarioKey(c).canonical, scenarioKey(d).canonical);
    EXPECT_NE(scenarioKey(a).canonical, scenarioKey(c).canonical);
}

TEST(ScenarioKeyTest, ModelKeysIgnoreShapeAndDormantSparsity)
{
    cli::Options a;
    a.model = "llama8b-attn";
    cli::Options b = a;
    b.m = 4096;
    b.workload = cli::Workload::Gemm; // both ignored under a model
    EXPECT_EQ(scenarioKey(a).canonical, scenarioKey(b).canonical);

    // A sparsity-knob model distinguishes explicit sparsity from the
    // canonical default...
    cli::Options c = a;
    c.sparsity = 0.7;
    c.sparsitySet = true;
    EXPECT_NE(scenarioKey(a).canonical, scenarioKey(c).canonical);

    // ...while a window-structured model ignores it entirely.
    cli::Options w;
    w.model = "longformer";
    cli::Options w2 = w;
    w2.sparsity = 0.3;
    w2.sparsitySet = true;
    EXPECT_EQ(scenarioKey(w).canonical, scenarioKey(w2).canonical);
}

TEST(ScenarioKeyTest, ClockGhzOnlyAffectsRenderingNotTheKey)
{
    cli::Options a;
    cli::Options b = a;
    b.fabric.clockGhz = 2.5;
    EXPECT_EQ(scenarioKey(a).canonical, scenarioKey(b).canonical);
    b.fabric.rows = 16; // real fabric dimensions do key
    EXPECT_NE(scenarioKey(a).canonical, scenarioKey(b).canonical);
}

TEST(ScenarioKeyTest, SchemaVersionIsBakedIn)
{
    const ScenarioKey key = scenarioKey(cli::Options{});
    EXPECT_NE(key.canonical.find(
                  "schema=" + std::to_string(kSchemaVersion)),
              std::string::npos)
        << key.canonical;
}

TEST(ScenarioKeyTest, DigestIsStableHexAndCollisionFree)
{
    const ScenarioKey a = scenarioKey(cli::Options{});
    EXPECT_EQ(a.digest().size(), 32u);
    EXPECT_EQ(a.digest(), a.digest());
    EXPECT_EQ(a.digest().find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_EQ(a.fileName(), a.digest() + ".entry");

    const ScenarioKey f = figureKey("bench_x", "table", "a=1");
    EXPECT_NE(a.digest(), f.digest());
    EXPECT_NE(figureKey("bench_x", "table", "a=2").digest(),
              f.digest());
}

TEST(CacheMode, ParsesEverySpellingAndRejectsGarbage)
{
    const std::pair<const char *, Mode> cases[] = {
        {"off", Mode::Off},
        {"read", Mode::Read},
        {"write", Mode::Write},
        {"readwrite", Mode::ReadWrite},
        {"refresh", Mode::Refresh},
    };
    for (const auto &[text, mode] : cases) {
        Mode out = Mode::Off;
        EXPECT_EQ(parseMode(text, out), "") << text;
        EXPECT_EQ(out, mode) << text;
        EXPECT_STREQ(modeName(mode), text);
    }
    Mode out = Mode::Off;
    EXPECT_NE(parseMode("rw", out), "");
    EXPECT_NE(parseMode("", out), "");
}

// ---- payload codecs ---------------------------------------------------

TEST(Payload, CaseResultRoundTripsLosslessly)
{
    CaseResult cases;
    ExecutionProfile canon_p;
    canon_p.arch = "canon";
    canon_p.workload = "spmm proxy m 512/2048"; // spaces survive
    canon_p.cycles = 1'253'184;
    canon_p.peCount = 64;
    canon_p.activity = {{"laneMacs", 123456789ull},
                        {"offchipBytes", 42ull}};
    cases["canon"] = canon_p;
    ExecutionProfile zed_p;
    zed_p.arch = "zed";
    zed_p.cycles = 7;
    cases["zed"] = zed_p;

    CaseResult back;
    ASSERT_TRUE(decodeCaseResult(encodeCaseResult(cases), back));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.at("canon").workload, canon_p.workload);
    EXPECT_EQ(back.at("canon").cycles, canon_p.cycles);
    EXPECT_EQ(back.at("canon").peCount, 64u);
    EXPECT_EQ(back.at("canon").activity, canon_p.activity);
    EXPECT_EQ(back.at("zed").cycles, 7u);
    // Idempotent: re-encoding the decode is bit-identical.
    EXPECT_EQ(encodeCaseResult(back), encodeCaseResult(cases));
}

TEST(Payload, CaseResultDecoderIsStrict)
{
    CaseResult cases;
    cases["canon"] = ExecutionProfile{};
    const std::string good = encodeCaseResult(cases);

    CaseResult out;
    EXPECT_FALSE(decodeCaseResult("", out));
    EXPECT_FALSE(decodeCaseResult("garbage\n", out));
    EXPECT_FALSE(
        decodeCaseResult(good.substr(0, good.size() / 2), out));
    EXPECT_FALSE(decodeCaseResult(good + "trailing\n", out));
}

TEST(Payload, RowsRoundTripThroughHostileCells)
{
    const RowTable rows = {
        {"a", "1,000", "say \"hi\""},
        {"", "line\nbreak", "cell 3\n"},
        {},
    };
    RowTable back;
    ASSERT_TRUE(decodeRows(encodeRows(rows), back));
    EXPECT_EQ(back, rows);

    RowTable out;
    EXPECT_FALSE(decodeRows("", out));
    EXPECT_FALSE(decodeRows("rows 2\nrow 0\n", out)); // short
    EXPECT_FALSE(decodeRows(encodeRows(rows) + "x", out));
    // Hostile counts fail the structural checks instead of throwing
    // (or allocating) out of the graceful-miss path.
    EXPECT_FALSE(decodeRows("rows 18446744073709551615\n", out));
    EXPECT_FALSE(decodeRows("rows 1\nrow 1000000000\ncell 1\na\n",
                            out));
}

TEST(Payload, FuzzedPayloadsNeverThrow)
{
    // Store files are untrusted bytes: every decode of byte soup, a
    // truncated or mutated entry, or an overlong number returns true
    // or false and never throws.
    CaseResult cases;
    ExecutionProfile p;
    p.arch = "canon";
    p.workload = "spmm proxy";
    p.cycles = 1234;
    p.peCount = 64;
    p.activity = {{"laneMacs", 99ull}, {"offchipBytes", 7ull}};
    cases["canon"] = p;
    const RowTable rows = {{"a", "1,000"}, {"", "line\nbreak"}};

    CaseResult cases_out;
    RowTable rows_out;
    for (const auto &bytes : fuzzInputs(encodeCaseResult(cases), 11))
        EXPECT_NO_THROW(decodeCaseResult(bytes, cases_out));
    for (const auto &bytes : fuzzInputs(encodeRows(rows), 12))
        EXPECT_NO_THROW(decodeRows(bytes, rows_out));
    // A cell length of 2^64 - 1 must not wrap the cursor into a
    // successful decode.
    EXPECT_FALSE(decodeRows("rows 1\nrow 1\ncell 18446744073709551615\n",
                            rows_out));
}

// ---- the store --------------------------------------------------------

TEST(ResultStoreTest, StoreAndLookupRoundTrip)
{
    const std::string dir = scratchDir("cache_store_roundtrip");
    ResultStore store(dir, Mode::ReadWrite);
    ASSERT_EQ(store.prepare(), "");

    const ScenarioKey key = figureKey("b", "t", "p=1");
    EXPECT_FALSE(store.lookup(key).has_value());
    ASSERT_TRUE(store.store(key, "payload bytes\n"));
    const auto hit = store.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "payload bytes\n");

    // Hits are recorded by the caller once the payload proves
    // usable, not by lookup itself (an undecodable fetch must count
    // as exactly one miss).
    EXPECT_EQ(store.stats().hits, 0u);
    store.recordHit();
    const CacheStats s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_NE(store.statsLine().find("1 hits"), std::string::npos);
}

TEST(ResultStoreTest, LookupVerifiesTheFullCanonicalKey)
{
    const std::string dir = scratchDir("cache_store_verify");
    ResultStore store(dir, Mode::ReadWrite);
    ASSERT_EQ(store.prepare(), "");

    // A forged entry at the right path but with another canonical
    // key (a digest collision, in effect) must read as a miss.
    const ScenarioKey key = figureKey("b", "t", "p=1");
    {
        std::ofstream f(dir + key.fileName(), std::ios::binary);
        f << "canon-cache 1\nsome other canonical key\npayload\n";
    }
    EXPECT_FALSE(store.lookup(key).has_value());

    // So must a stale store format...
    {
        std::ofstream f(dir + key.fileName(), std::ios::binary);
        f << "canon-cache 0\n" << key.canonical << "\npayload\n";
    }
    EXPECT_FALSE(store.lookup(key).has_value());

    // ...while the well-formed spelling hits.
    {
        std::ofstream f(dir + key.fileName(), std::ios::binary);
        f << "canon-cache 1\n" << key.canonical << "\npayload\n";
    }
    EXPECT_TRUE(store.lookup(key).has_value());
}

TEST(ResultStoreTest, ModesGateReadsWritesAndOverwrites)
{
    const std::string dir = scratchDir("cache_store_modes");
    const ScenarioKey key = figureKey("b", "t", "p=1");

    ResultStore read_only(dir, Mode::Read);
    ASSERT_EQ(read_only.prepare(), "");
    EXPECT_TRUE(read_only.store(key, "x")); // silent no-op
    EXPECT_EQ(entryCount(dir), 0u);

    ResultStore write_only(dir, Mode::Write);
    EXPECT_TRUE(write_only.store(key, "first"));
    EXPECT_FALSE(write_only.lookup(key).has_value()); // no reads
    EXPECT_TRUE(write_only.store(key, "second")); // keeps "first"

    ResultStore rw(dir, Mode::ReadWrite);
    EXPECT_EQ(*rw.lookup(key), "first");

    ResultStore refresh(dir, Mode::Refresh);
    EXPECT_TRUE(refresh.store(key, "third")); // overwrites stale
    EXPECT_FALSE(refresh.lookup(key).has_value()); // no reads
    EXPECT_EQ(*rw.lookup(key), "third");
}

TEST(ResultStoreTest, ConcurrentWritersAndReadersNeverTear)
{
    const std::string dir = scratchDir("cache_store_race");
    ResultStore store(dir, Mode::Refresh);
    ASSERT_EQ(store.prepare(), "");
    ResultStore reader(dir, Mode::Read);

    // 8 threads hammer 4 shared keys; payloads are writer-specific
    // but every observed read must be one of them, complete.
    const int writers = 8, rounds = 50;
    std::atomic<int> torn{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < writers; ++t) {
        threads.emplace_back([&, t]() {
            for (int r = 0; r < rounds; ++r) {
                const ScenarioKey key = figureKey(
                    "race", "t", "k=" + std::to_string(r % 4));
                const std::string payload =
                    "payload-" + std::to_string(t) + "\n";
                store.store(key, payload);
                if (auto got = reader.lookup(key)) {
                    if (got->rfind("payload-", 0) != 0 ||
                        got->back() != '\n')
                        torn.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(torn.load(), 0);
    EXPECT_EQ(entryCount(dir), 4u);
    // No temp litter left behind.
    for (const auto &e : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(e.path().extension(), ".entry") << e.path();
}

// ---- cached pool execution --------------------------------------------

/** A small real sweep: 2 sparsities x 2 seeds on a tiny spmm. */
std::vector<runner::SweepJob>
tinySweepJobs()
{
    cli::Options base;
    base.workload = cli::Workload::Spmm;
    base.m = 16;
    base.k = 16;
    base.n = 16;
    runner::SweepSpec spec;
    EXPECT_EQ(spec.addAxis("sparsity", "0.3,0.7"), "");
    EXPECT_EQ(spec.addAxis("seed", "1,2"), "");
    return spec.expand(base);
}

TEST(CachedPool, WarmRunExecutesZeroScenarios)
{
    const std::string dir = scratchDir("cache_pool_warm");
    const auto jobs = tinySweepJobs();
    const runner::ScenarioPool pool(2);
    std::atomic<int> executed{0};
    auto fn = [&executed](const cli::Options &o) {
        executed.fetch_add(1);
        return engine::runScenarioCases(o);
    };

    ResultStore cold(dir, Mode::ReadWrite);
    ASSERT_EQ(cold.prepare(), "");
    const auto first = pool.run(jobs, fn, &cold);
    EXPECT_EQ(executed.load(), 4);
    EXPECT_EQ(cold.stats().misses, 4u);
    EXPECT_EQ(cold.stats().stores, 4u);
    EXPECT_EQ(entryCount(dir), 4u);

    ResultStore warm(dir, Mode::ReadWrite);
    const auto second = pool.run(jobs, fn, &warm);
    EXPECT_EQ(executed.load(), 4); // zero new simulations
    EXPECT_EQ(warm.stats().hits, 4u);
    EXPECT_EQ(warm.stats().misses, 0u);

    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(second[i].error, "");
        EXPECT_EQ(encodeCaseResult(second[i].cases),
                  encodeCaseResult(first[i].cases))
            << jobs[i].point;
    }
}

TEST(CachedPool, FailedScenariosAreNeverCached)
{
    const std::string dir = scratchDir("cache_pool_fail");
    cli::Options base;
    runner::SweepSpec spec;
    ASSERT_EQ(spec.addAxis("seed", "1,2,3"), "");
    const auto jobs = spec.expand(base);

    const runner::ScenarioPool pool(1);
    std::atomic<int> executed{0};
    auto flaky = [&executed](const cli::Options &o) -> CaseResult {
        executed.fetch_add(1);
        if (o.seed == 2)
            throw std::runtime_error("transient failure");
        return engine::runScenarioCases(o);
    };

    ResultStore store(dir, Mode::ReadWrite);
    ASSERT_EQ(store.prepare(), "");
    auto first = pool.run(jobs, flaky, &store);
    EXPECT_EQ(first[1].error, "transient failure");
    EXPECT_EQ(entryCount(dir), 2u); // only the successes persisted

    // The resume re-runs exactly the failed scenario.
    ResultStore resume(dir, Mode::ReadWrite);
    executed.store(0);
    auto second = pool.run(jobs, engine::runScenarioCases, &resume);
    EXPECT_EQ(executed.load(), 0); // flaky not used; count via stats
    EXPECT_EQ(resume.stats().hits, 2u);
    EXPECT_EQ(resume.stats().misses, 1u);
    EXPECT_EQ(second[1].error, "");
}

TEST(CachedPool, CachedJobsRoundTripPayloadsThroughTheStore)
{
    const std::string dir = scratchDir("cache_pool_jobs");
    const runner::ScenarioPool pool(2);
    std::atomic<int> computed{0};
    auto key_of = [](std::size_t i) {
        return figureKey("pool", "t", "i=" + std::to_string(i));
    };

    // One pass of five cached jobs; accept() takes only payloads
    // that look computed, the way a decoder rejects a corrupt entry.
    auto run = [&](const ResultStore *store,
                   std::vector<std::string> &got) {
        got.assign(5, "");
        std::vector<runner::JobStatus> status(5);
        std::vector<runner::CachedJob> jobs(5);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            jobs[i].key = key_of(i);
            jobs[i].compute = [&computed, i] {
                computed.fetch_add(1);
                return "value-" + std::to_string(i * i);
            };
            jobs[i].accept = [&slot = got[i]](const std::string &p) {
                if (p.rfind("value-", 0) != 0)
                    return false;
                slot = p;
                return true;
            };
            jobs[i].status = &status[i];
        }
        pool.runCached(jobs, store);
        return status;
    };

    std::vector<std::string> cold;
    ResultStore store(dir, Mode::ReadWrite);
    ASSERT_EQ(store.prepare(), "");
    for (const auto &st : run(&store, cold)) {
        EXPECT_EQ(st.error, "");
        EXPECT_TRUE(st.cacheStored);
    }
    EXPECT_EQ(computed.load(), 5);
    EXPECT_EQ(cold[3], "value-9");

    // Warm: the payloads come back bit-exact with zero computation.
    std::vector<std::string> warm;
    ResultStore warm_store(dir, Mode::ReadWrite);
    for (const auto &st : run(&warm_store, warm))
        EXPECT_TRUE(st.cacheHit);
    EXPECT_EQ(warm, cold);
    EXPECT_EQ(computed.load(), 5);
    EXPECT_EQ(warm_store.stats().hits, 5u);

    // An entry accept() rejects is exactly one miss, never also a
    // hit, and is recomputed.
    ASSERT_TRUE(ResultStore(dir, Mode::Refresh).store(key_of(2), "x"));
    std::vector<std::string> tolerant;
    ResultStore tolerant_store(dir, Mode::ReadWrite);
    const auto st = run(&tolerant_store, tolerant);
    EXPECT_FALSE(st[2].cacheHit);
    EXPECT_EQ(tolerant, cold);
    EXPECT_EQ(computed.load(), 6);
    EXPECT_EQ(tolerant_store.stats().hits, 4u);
    EXPECT_EQ(tolerant_store.stats().misses, 1u);

    // Without a store every job computes.
    std::vector<std::string> plain;
    run(nullptr, plain);
    EXPECT_EQ(plain, cold);
    EXPECT_EQ(computed.load(), 11);
}

// ---- canonsim end to end ----------------------------------------------

struct RunOutput
{
    int rc = 0;
    std::string out;
    std::string err;
    std::string csv;
};

RunOutput
runCanonsim(std::vector<std::string> args, const std::string &csv)
{
    if (!csv.empty()) {
        args.push_back("--csv");
        args.push_back(csv);
    }
    auto parsed = cli::parseArgs(args);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    RunOutput r;
    std::ostringstream out, err;
    r.rc = cli::runScenario(parsed.options, out, err);
    r.out = out.str();
    r.err = err.str();
    if (!csv.empty())
        r.csv = slurp(csv);
    return r;
}

const std::vector<std::string> kSweepArgs = {
    "--workload", "gemm", "--m", "16", "--k", "16", "--n", "16",
    "--sweep", "k=16,32,48", "--sweep", "rows=2,4", "--jobs", "2"};

TEST(CachedRunScenario, WarmRerunIsByteIdenticalWithZeroJobs)
{
    const std::string dir = scratchDir("cache_e2e_warm");
    const std::string cache = dir + "cache";

    auto base = runCanonsim(kSweepArgs, dir + "plain.csv");
    ASSERT_EQ(base.rc, 0) << base.err;

    auto cached_args = kSweepArgs;
    cached_args.insert(cached_args.end(), {"--cache-dir", cache});
    auto cold = runCanonsim(cached_args, dir + "cold.csv");
    ASSERT_EQ(cold.rc, 0) << cold.err;
    EXPECT_NE(cold.out.find("cache: 0 hits, 6 misses, 6 stored;"
                            " simulation jobs executed: 6"),
              std::string::npos)
        << cold.out;
    EXPECT_EQ(cold.csv, base.csv);

    auto warm = runCanonsim(cached_args, dir + "warm.csv");
    ASSERT_EQ(warm.rc, 0) << warm.err;
    EXPECT_NE(warm.out.find("cache: 6 hits, 0 misses, 0 stored;"
                            " simulation jobs executed: 0"),
              std::string::npos)
        << warm.out;
    EXPECT_EQ(warm.csv, base.csv); // byte-identical from the cache
}

TEST(CachedRunScenario, InterruptedSweepResumesOnlyMissingPoints)
{
    const std::string dir = scratchDir("cache_e2e_resume");
    const std::string cache = dir + "cache";

    // "Interrupted": only the first half of the grid ever ran.
    auto half_args = kSweepArgs;
    half_args.insert(half_args.end(),
                     {"--cache-dir", cache, "--shard", "0/2"});
    auto half = runCanonsim(half_args, "");
    ASSERT_EQ(half.rc, 0) << half.err;
    EXPECT_NE(half.out.find("simulation jobs executed: 3"),
              std::string::npos)
        << half.out;

    // The full rerun executes exactly the three missing scenarios.
    auto full_args = kSweepArgs;
    full_args.insert(full_args.end(), {"--cache-dir", cache});
    auto resumed = runCanonsim(full_args, dir + "resumed.csv");
    ASSERT_EQ(resumed.rc, 0) << resumed.err;
    EXPECT_NE(resumed.out.find("cache: 3 hits, 3 misses, 3 stored;"
                               " simulation jobs executed: 3"),
              std::string::npos)
        << resumed.out;

    auto plain = runCanonsim(kSweepArgs, dir + "plain.csv");
    EXPECT_EQ(resumed.csv, plain.csv);
}

TEST(CachedRunScenario, ConcurrentShardsShareOneCacheDirCleanly)
{
    const std::string dir = scratchDir("cache_e2e_shards");
    const std::string cache = dir + "cache";

    // Two shard "processes" race on one cache directory.
    RunOutput results[2];
    {
        std::vector<std::thread> threads;
        for (int s = 0; s < 2; ++s) {
            threads.emplace_back([&, s]() {
                auto args = kSweepArgs;
                args.insert(args.end(),
                            {"--cache-dir", cache, "--shard",
                             std::to_string(s) + "/2"});
                results[s] = runCanonsim(
                    args, dir + "s" + std::to_string(s) + ".csv");
            });
        }
        for (auto &t : threads)
            t.join();
    }
    ASSERT_EQ(results[0].rc, 0) << results[0].err;
    ASSERT_EQ(results[1].rc, 0) << results[1].err;

    // Merged shard CSVs reproduce the unsharded CSV byte for byte.
    auto plain = runCanonsim(kSweepArgs, dir + "plain.csv");
    EXPECT_EQ(results[0].csv + results[1].csv, plain.csv);

    // And the directory now warms a full run completely.
    auto warm_args = kSweepArgs;
    warm_args.insert(warm_args.end(), {"--cache-dir", cache});
    auto warm = runCanonsim(warm_args, dir + "warm.csv");
    EXPECT_NE(warm.out.find("cache: 6 hits, 0 misses, 0 stored;"
                            " simulation jobs executed: 0"),
              std::string::npos)
        << warm.out;
    EXPECT_EQ(warm.csv, plain.csv);
}

TEST(CachedRunScenario, RefreshOverwritesStaleEntries)
{
    const std::string dir = scratchDir("cache_e2e_refresh");
    const std::string cache = dir + "cache";

    auto cached_args = kSweepArgs;
    cached_args.insert(cached_args.end(), {"--cache-dir", cache});
    auto cold = runCanonsim(cached_args, dir + "cold.csv");
    ASSERT_EQ(cold.rc, 0) << cold.err;

    // Corrupt every entry's payload, keeping the valid header so the
    // lookup itself still matches (a genuinely stale body).
    std::size_t corrupted = 0;
    for (const auto &e : std::filesystem::directory_iterator(cache)) {
        const std::string text = slurp(e.path().string());
        const auto second_nl = text.find('\n', text.find('\n') + 1);
        ASSERT_NE(second_nl, std::string::npos);
        std::ofstream f(e.path(), std::ios::binary);
        f << text.substr(0, second_nl + 1) << "stale garbage\n";
        ++corrupted;
    }
    EXPECT_EQ(corrupted, 6u);

    // readwrite tolerates the corruption by re-running (and, since
    // the entries exist, leaves them stale). A fetched-but-
    // undecodable entry is exactly one miss, never also a hit.
    auto tolerant = runCanonsim(cached_args, dir + "tolerant.csv");
    ASSERT_EQ(tolerant.rc, 0) << tolerant.err;
    EXPECT_NE(tolerant.out.find("cache: 0 hits, 6 misses"),
              std::string::npos)
        << tolerant.out;
    EXPECT_EQ(tolerant.csv, cold.csv);

    // ...and refresh rewrites them for good.
    auto refresh_args = cached_args;
    refresh_args.insert(refresh_args.end(), {"--cache", "refresh"});
    auto refreshed = runCanonsim(refresh_args, "");
    ASSERT_EQ(refreshed.rc, 0) << refreshed.err;
    EXPECT_NE(refreshed.out.find("6 stored"), std::string::npos)
        << refreshed.out;

    auto warm = runCanonsim(cached_args, dir + "warm.csv");
    EXPECT_NE(warm.out.find("simulation jobs executed: 0"),
              std::string::npos)
        << warm.out;
    EXPECT_EQ(warm.csv, cold.csv);
}

TEST(CachedRunScenario, ReadModeNeverPopulatesTheStore)
{
    const std::string dir = scratchDir("cache_e2e_read");
    const std::string cache = dir + "cache";

    auto args = kSweepArgs;
    args.insert(args.end(),
                {"--cache-dir", cache, "--cache", "read"});
    auto run = runCanonsim(args, "");
    ASSERT_EQ(run.rc, 0) << run.err;
    EXPECT_NE(run.out.find("0 stored"), std::string::npos)
        << run.out;
    EXPECT_EQ(entryCount(cache), 0u);
}

TEST(CachedRunScenario, SingleRunReportsCacheStats)
{
    const std::string dir = scratchDir("cache_e2e_single");
    const std::vector<std::string> args = {
        "--workload", "spmm", "--m", "16", "--k", "16", "--n", "16",
        "--cache-dir", dir + "cache"};
    auto cold = runCanonsim(args, "");
    ASSERT_EQ(cold.rc, 0) << cold.err;
    EXPECT_NE(cold.out.find("cache: 0 hits, 1 misses, 1 stored;"),
              std::string::npos)
        << cold.out;
    auto warm = runCanonsim(args, "");
    EXPECT_NE(warm.out.find("cache: 1 hits, 0 misses, 0 stored;"),
              std::string::npos)
        << warm.out;
}

} // namespace
} // namespace cache
} // namespace canon
