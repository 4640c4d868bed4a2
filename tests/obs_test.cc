/**
 * @file
 * Observability-layer tests: the obs flag grammar and its cross-flag
 * validation, cycle-sampler determinism across registration-shuffle
 * seeds, the zero-perturbation guarantee (observed runs behave
 * bit-identically to unobserved ones), engine-level byte-equality of
 * all three artifacts across worker counts, Chrome-trace schema
 * validity with per-track monotonic timestamps, and the structured
 * stats dump round-trip against the in-memory profiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "argv.hh"
#include "cli/options.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/fabric.hh"
#include "engine/common_flags.hh"
#include "engine/engine.hh"
#include "engine/obs_report.hh"
#include "kernels/spmm.hh"
#include "obs/accounting.hh"
#include "obs/collector.hh"
#include "obs/hist.hh"
#include "obs/host.hh"
#include "obs/sampler.hh"
#include "obs/series.hh"
#include "sparse/generate.hh"

namespace canon
{
namespace
{

// ---------------------------------------------------------------------
// Flag grammar.
// ---------------------------------------------------------------------

/** Offer one flag (a value-less one when @p value is null). */
std::string
offer(const std::string &key, const char *value, engine::CommonFlags &out)
{
    return value ? parseCommon({key, value}, out) : parseCommon({key}, out);
}

TEST(ObsFlags, RecognizedAsCommon)
{
    EXPECT_NE(commonRow("sample-every"), nullptr);
    EXPECT_NE(commonRow("series-out"), nullptr);
    EXPECT_NE(commonRow("trace-out"), nullptr);
    EXPECT_NE(commonRow("stats-json"), nullptr);
    EXPECT_EQ(commonRow("sample"), nullptr);
}

TEST(ObsFlags, SampleEveryParsesAndRejects)
{
    engine::CommonFlags f;
    EXPECT_EQ(offer("--sample-every", "50", f), "");
    EXPECT_EQ(f.obs.sampleEvery, 50u);

    for (const char *bad : {"0", "-3", "abc", "1000000001", ""}) {
        engine::CommonFlags g;
        EXPECT_NE(offer("--sample-every", bad, g), "")
            << "value '" << bad << "'";
    }
}

TEST(ObsFlags, OutputPathsParseAndRejectEmpty)
{
    engine::CommonFlags f;
    EXPECT_EQ(offer("--series-out", "s.csv", f), "");
    EXPECT_EQ(offer("--trace-out", "t.json", f), "");
    EXPECT_EQ(offer("--stats-json", "j.json", f), "");
    EXPECT_EQ(f.obs.seriesOut, "s.csv");
    EXPECT_EQ(f.obs.traceOut, "t.json");
    EXPECT_EQ(f.obs.statsJsonOut, "j.json");

    for (const char *key :
         {"--series-out", "--trace-out", "--stats-json"}) {
        engine::CommonFlags g;
        EXPECT_NE(offer(key, "", g), "") << key;
    }
}

TEST(ObsFlags, BooleanFlagsParseAndRejectValues)
{
    for (const char *name : {"cycle-accounting", "host-timers"}) {
        ASSERT_NE(commonRow(name), nullptr) << name;
        EXPECT_FALSE(commonRow(name)->takesValue) << name;
    }
    EXPECT_TRUE(commonRow("sample-every")->takesValue);
    EXPECT_TRUE(commonRow("series-out")->takesValue);

    engine::CommonFlags f;
    EXPECT_EQ(offer("--cycle-accounting", nullptr, f), "");
    EXPECT_TRUE(f.obs.cycleAccounting);
    EXPECT_EQ(offer("--host-timers", nullptr, f), "");
    EXPECT_TRUE(f.obs.hostTimers);

    // Boolean knobs take no value: --cycle-accounting=on is a typo,
    // not a request.
    for (const std::string key : {"--cycle-accounting", "--host-timers"}) {
        engine::CommonFlags g;
        EXPECT_EQ(parseCommon({key + "=on"}, g),
                  "option '" + key + "' takes no value");
    }
}

TEST(ObsFlags, OutputPathParentsValidatedAtParseTime)
{
    // A typo'd directory fails fast, before anything simulates.
    for (const char *key :
         {"--series-out", "--trace-out", "--stats-json"}) {
        engine::CommonFlags f;
        f.obs.sampleEvery = 10;
        const std::string path =
            "no-such-canon-dir-xyzzy/out.dat";
        if (std::string(key) == "--series-out")
            f.obs.seriesOut = path;
        else if (std::string(key) == "--trace-out")
            f.obs.traceOut = path;
        else
            f.obs.statsJsonOut = path;
        const std::string err = engine::validateCommonFlags(f);
        EXPECT_FALSE(err.empty()) << key;
        EXPECT_NE(err.find("does not exist"), std::string::npos)
            << err;
    }

    // A bare filename writes into the (writable) cwd: fine.
    engine::CommonFlags ok;
    ok.obs.statsJsonOut = "ok.json";
    EXPECT_TRUE(engine::validateCommonFlags(ok).empty());

    // An existing directory is not a writable file target.
    engine::CommonFlags dir;
    dir.obs.statsJsonOut = ".";
    EXPECT_FALSE(engine::validateCommonFlags(dir).empty());
}

TEST(ObsFlags, CrossValidation)
{
    // --series-out needs a cadence to sample at.
    engine::CommonFlags f;
    f.obs.seriesOut = "s.csv";
    EXPECT_FALSE(engine::validateCommonFlags(f).empty());

    // A cadence with no output requested samples into the void.
    engine::CommonFlags g;
    g.obs.sampleEvery = 10;
    EXPECT_FALSE(engine::validateCommonFlags(g).empty());

    // Cadence + any output flag is a valid combination.
    engine::CommonFlags h;
    h.obs.sampleEvery = 10;
    h.obs.traceOut = "t.json";
    EXPECT_TRUE(engine::validateCommonFlags(h).empty());

    // Trace/stats dumps alone need no cadence.
    engine::CommonFlags k;
    k.obs.statsJsonOut = "j.json";
    EXPECT_TRUE(engine::validateCommonFlags(k).empty());
}

TEST(ObsOptions, DisabledByDefault)
{
    const obs::ObsOptions opt;
    EXPECT_FALSE(opt.enabled());
    EXPECT_FALSE(opt.sampling());
    EXPECT_FALSE(opt.wantFlatStats());
    EXPECT_FALSE(opt.cycleAccounting);
    EXPECT_FALSE(opt.hostTimers);
}

TEST(ObsOptions, AccountingAloneEnables)
{
    obs::ObsOptions opt;
    opt.cycleAccounting = true;
    EXPECT_TRUE(opt.enabled());
    EXPECT_FALSE(opt.sampling());

    obs::ObsOptions timers;
    timers.hostTimers = true;
    EXPECT_TRUE(timers.enabled());
}

// ---------------------------------------------------------------------
// Histogram bucket scheme.
// ---------------------------------------------------------------------

TEST(Histogram, BucketEdges)
{
    using obs::Histogram;
    EXPECT_EQ(Histogram::bucketOf(0), 0);
    EXPECT_EQ(Histogram::bucketOf(1), 1);
    EXPECT_EQ(Histogram::bucketOf(2), 2);
    EXPECT_EQ(Histogram::bucketOf(3), 2);
    EXPECT_EQ(Histogram::bucketOf(4), 3);
    EXPECT_EQ(Histogram::bucketOf(7), 3);
    EXPECT_EQ(Histogram::bucketOf(32767), Histogram::kBuckets - 2);
    EXPECT_EQ(Histogram::bucketOf(32768), Histogram::kBuckets - 1);
    // Overflow clamps into the last bucket instead of falling off.
    EXPECT_EQ(Histogram::bucketOf(std::uint64_t(1) << 40),
              Histogram::kBuckets - 1);

    // Every bucket's lower bound, 2^(b-1), lands in that bucket, and
    // the value just below it lands in the previous one.
    for (int b = 1; b < Histogram::kBuckets; ++b) {
        const std::uint64_t lo = std::uint64_t{1} << (b - 1);
        EXPECT_EQ(Histogram::bucketOf(lo), b);
        EXPECT_EQ(Histogram::bucketOf(lo - 1), b - 1);
    }
}

TEST(Histogram, RecordCountsAndLabels)
{
    obs::Histogram h;
    h.record(0);
    h.record(1);
    h.record(5);
    h.record(5);
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.counts()[0], 1u);
    EXPECT_EQ(h.counts()[1], 1u);
    EXPECT_EQ(h.counts()[3], 2u);

    // The value ranges of buckets "0", "1", "2-3" and "32768+".
    obs::Histogram edges;
    for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 32768ull, 1ull << 40})
        edges.record(v);
    EXPECT_EQ(edges.counts()[0], 1u);
    EXPECT_EQ(edges.counts()[1], 1u);
    EXPECT_EQ(edges.counts()[2], 2u);
    EXPECT_EQ(edges.counts()[obs::Histogram::kBuckets - 1], 2u);
}

// ---------------------------------------------------------------------
// Probe cadence edges (driven directly, no fabric).
// ---------------------------------------------------------------------

/** A probe partition driving only a sampler over one PE's
 *  @p mac_ops counter. */
obs::CycleProbe
samplingProbe(const Counter &mac_ops, std::uint64_t every)
{
    auto sampler = std::make_unique<obs::CycleSampler>();
    sampler->track("pe0_0", "macOps", mac_ops);
    return obs::CycleProbe(every, std::move(sampler), nullptr);
}

TEST(Sampler, ExactCadenceMultipleSamplesOnceAtRunEnd)
{
    // 10 cycles at --sample-every 5: samples at 5 and 10, and the
    // final-interval capture must notice cycle 10 is already sampled
    // instead of duplicating it.
    Counter c;
    obs::CycleProbe s = samplingProbe(c, 5);
    for (int i = 0; i < 10; ++i) {
        ++c;
        s.tickCommit();
    }
    s.captureFinal();
    const auto set = s.takeSeries();
    ASSERT_EQ(set.series.size(), 1u);
    const auto &pts = set.series[0].points;
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_EQ(pts[0].cycle, 5u);
    EXPECT_EQ(pts[0].value, 5u);
    EXPECT_EQ(pts[1].cycle, 10u);
    EXPECT_EQ(pts[1].value, 10u);
}

TEST(Sampler, RunShorterThanOneCadenceStillGetsFinalSample)
{
    Counter c;
    obs::CycleProbe s = samplingProbe(c, 100);
    for (int i = 0; i < 3; ++i) {
        ++c;
        s.tickCommit();
    }
    s.captureFinal();
    const auto set = s.takeSeries();
    ASSERT_EQ(set.series.size(), 1u);
    const auto &pts = set.series[0].points;
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].cycle, 3u);
    EXPECT_EQ(pts[0].value, 3u);
}

// ---------------------------------------------------------------------
// Sampler determinism and zero perturbation on a live fabric.
// ---------------------------------------------------------------------

struct ObservedRun
{
    Cycle cycles = 0;
    WordMatrix result;
    std::map<std::string, std::uint64_t> flat;
    std::uint64_t macOps = 0;
    std::shared_ptr<const obs::ScenarioObs> obs;
};

/**
 * One sampled SpMM execution under a registration shuffle. The
 * workload is fixed; only the shuffle seed, the observation options,
 * and the orchestrator policy axes vary.
 */
ObservedRun
sampledRun(std::uint64_t shuffle_seed, bool observe,
           int tag_banks = 1,
           SpadFlushPolicy flush = SpadFlushPolicy::Eager)
{
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.spadEntries = 4;
    cfg.tagBanks = tag_banks;
    cfg.spadFlush = flush;
    Rng rng(77);
    const auto a = randomSparse(32, 16, 0.5, rng);
    const auto b = randomDense(16, 8, rng);

    obs::ObsOptions opt;
    opt.sampleEvery = 25;
    opt.seriesOut = "unused.csv"; // never written; writers not called
    opt.statsJsonOut = "unused.json";

    ObservedRun out;
    CanonFabric fabric(cfg, shuffle_seed);
    fabric.load(mapSpmm(a, b, cfg));
    if (observe) {
        obs::Collector col(opt);
        obs::ScopedCollector scope(col);
        out.cycles = fabric.run();
        out.obs = col.finish();
    } else {
        out.cycles = fabric.run();
    }
    out.result = fabric.result();
    out.flat = fabric.flatStats();
    out.macOps = fabric.sumCounter("macOps");
    return out;
}

TEST(Sampler, SeriesIdenticalAcrossRegistrationShuffles)
{
    const auto ref = sampledRun(0, true);
    ASSERT_EQ(ref.obs->runs.size(), 1u);
    ASSERT_FALSE(ref.obs->runs[0].series.series.empty());
    for (std::uint64_t seed : {1ull, 12345ull}) {
        const auto got = sampledRun(seed, true);
        EXPECT_EQ(got.cycles, ref.cycles) << "seed " << seed;
        ASSERT_EQ(got.obs->runs.size(), 1u);
        EXPECT_EQ(got.obs->runs[0].series, ref.obs->runs[0].series)
            << "seed " << seed;
        EXPECT_EQ(got.obs->runs[0].flat, ref.obs->runs[0].flat)
            << "seed " << seed;
    }
}

TEST(Sampler, SeriesIdenticalAcrossShufflesUnderPolicyAxes)
{
    // The banked search and the adaptive flush policy must not leak
    // registration order into the sampled series either.
    const auto ref =
        sampledRun(0, true, 4, SpadFlushPolicy::Adaptive);
    ASSERT_EQ(ref.obs->runs.size(), 1u);
    ASSERT_FALSE(ref.obs->runs[0].series.series.empty());
    for (std::uint64_t seed : {1ull, 12345ull}) {
        const auto got =
            sampledRun(seed, true, 4, SpadFlushPolicy::Adaptive);
        EXPECT_EQ(got.cycles, ref.cycles) << "seed " << seed;
        ASSERT_EQ(got.obs->runs.size(), 1u);
        EXPECT_EQ(got.obs->runs[0].series, ref.obs->runs[0].series)
            << "seed " << seed;
        EXPECT_EQ(got.obs->runs[0].flat, ref.obs->runs[0].flat)
            << "seed " << seed;
    }
    // Same answer as the eager/linear baseline: policies change
    // timing and probe cost, never values.
    EXPECT_EQ(ref.result, sampledRun(0, false).result);
}

TEST(Sampler, SeriesShapeAndCumulativeValues)
{
    const auto run = sampledRun(0, true);
    const auto &set = run.obs->runs[0].series;

    // Probes include the fabric-wide rollup and each orchestrator.
    bool saw_fabric = false, saw_orch = false;
    for (const auto &s : set.series) {
        saw_fabric |= s.component == "fabric";
        saw_orch |= s.component.rfind("orch", 0) == 0;

        // Every series shares the cadence: samples at multiples of 25
        // plus one final partial-interval sample at run end.
        ASSERT_FALSE(s.points.empty()) << s.metric;
        for (std::size_t i = 0; i < s.points.size(); ++i) {
            const auto &p = s.points[i];
            if (i + 1 < s.points.size())
                EXPECT_EQ(p.cycle % 25, 0u) << s.metric;
            else
                EXPECT_EQ(p.cycle, run.cycles) << s.metric;
            if (i > 0) {
                EXPECT_GT(p.cycle, s.points[i - 1].cycle);
                // Cumulative counters never decrease.
                EXPECT_GE(p.value, s.points[i - 1].value)
                    << s.metric << "@" << p.cycle;
            }
        }
    }
    EXPECT_TRUE(saw_fabric);
    EXPECT_TRUE(saw_orch);

    // The fabric macOps series must end at the counter's final value.
    for (const auto &s : set.series) {
        if (s.metric == "macOps" && s.component == "fabric") {
            EXPECT_EQ(s.points.back().value, run.macOps);
        }
    }
}

TEST(Sampler, ObservationDoesNotPerturbTheRun)
{
    // The observed execution is bit-identical to the unobserved one:
    // same cycle count, same result matrix, same final stats.
    const auto off = sampledRun(0, false);
    const auto on = sampledRun(0, true);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.result, on.result);
    EXPECT_EQ(off.flat, on.flat);
    EXPECT_EQ(off.obs, nullptr);
    EXPECT_EQ(obs::current(), nullptr);
}

// ---------------------------------------------------------------------
// Cycle accounting on a live fabric.
// ---------------------------------------------------------------------

/** sampledRun with --cycle-accounting on (and optional sampling). */
ObservedRun
accountedRun(std::uint64_t shuffle_seed, bool sample = true)
{
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.spadEntries = 4;
    Rng rng(77);
    const auto a = randomSparse(32, 16, 0.5, rng);
    const auto b = randomDense(16, 8, rng);

    obs::ObsOptions opt;
    opt.cycleAccounting = true;
    opt.statsJsonOut = "unused.json";
    if (sample) {
        opt.sampleEvery = 25;
        opt.seriesOut = "unused.csv";
    }

    ObservedRun out;
    CanonFabric fabric(cfg, shuffle_seed);
    fabric.load(mapSpmm(a, b, cfg));
    obs::Collector col(opt);
    {
        obs::ScopedCollector scope(col);
        out.cycles = fabric.run();
    }
    out.obs = col.finish();
    out.result = fabric.result();
    out.flat = fabric.flatStats();
    return out;
}

TEST(Accounting, CategoriesSumExactlyToObservedCycles)
{
    const auto run = accountedRun(0);
    ASSERT_EQ(run.obs->runs.size(), 1u);
    const auto &acct = run.obs->runs[0].accounting;
    ASSERT_FALSE(acct.empty());
    EXPECT_EQ(acct.cycles, run.cycles);

    // 2x2 fabric: 2 orchestrators, 4 PEs, 2 pipelines, in the fixed
    // orchs / row-major PEs / pipes order.
    ASSERT_EQ(acct.components.size(), 8u);
    EXPECT_EQ(acct.components[0].component, "orch0");
    EXPECT_EQ(acct.components[1].component, "orch1");
    EXPECT_EQ(acct.components[2].component, "pe0_0");
    EXPECT_EQ(acct.components[5].component, "pe1_1");
    EXPECT_EQ(acct.components[6].component, "pipe0");
    EXPECT_EQ(acct.components[7].component, "pipe1");

    // The invariant: six mutually exclusive categories, summing
    // exactly to the observed cycles for every component.
    for (const auto &comp : acct.components)
        EXPECT_EQ(comp.total(), acct.cycles) << comp.component;
}

TEST(Accounting, IdenticalAcrossRegistrationShuffles)
{
    const auto ref = accountedRun(0);
    ASSERT_EQ(ref.obs->runs.size(), 1u);
    for (std::uint64_t seed : {1ull, 12345ull}) {
        const auto got = accountedRun(seed);
        ASSERT_EQ(got.obs->runs.size(), 1u);
        EXPECT_EQ(got.obs->runs[0].accounting,
                  ref.obs->runs[0].accounting)
            << "seed " << seed;
    }
}

TEST(Accounting, HistogramsPopulatedInFixedOrder)
{
    const auto run = accountedRun(0);
    const auto &hists = run.obs->runs[0].accounting.histograms;
    // 3 channel-class occupancy + 2 tagDepth + 2 searchLen.
    ASSERT_EQ(hists.size(), 7u);
    EXPECT_EQ(hists[0].metric, "occupancy");
    EXPECT_EQ(hists[0].component, "vert");
    EXPECT_EQ(hists[1].component, "horiz");
    EXPECT_EQ(hists[2].component, "msg");
    EXPECT_EQ(hists[3].metric, "tagDepth");
    EXPECT_EQ(hists[3].component, "orch0");
    EXPECT_EQ(hists[5].metric, "searchLen");
    EXPECT_EQ(hists[5].component, "orch0");

    // Occupancy sampled on the cadence: one sample per channel per
    // captured cycle, so the counts sum to samples().
    EXPECT_GT(hists[0].hist.samples(), 0u);
    for (const auto &h : hists) {
        std::uint64_t sum = 0;
        for (std::uint64_t c : h.hist.counts())
            sum += c;
        EXPECT_EQ(sum, h.hist.samples())
            << h.metric << "/" << h.component;
    }
}

TEST(Accounting, RollupSeriesSumToAccounted)
{
    const auto run = accountedRun(0);
    const auto &set = run.obs->runs[0].series;
    std::map<std::uint64_t, std::uint64_t> cat_sum, accounted;
    for (const auto &s : set.series) {
        if (s.metric.rfind("acct.", 0) != 0)
            continue;
        EXPECT_EQ(s.component, "fabric") << s.metric;
        for (const auto &p : s.points) {
            if (s.metric == "acct.accounted")
                accounted[p.cycle] = p.value;
            else
                cat_sum[p.cycle] += p.value;
        }
    }
    ASSERT_FALSE(accounted.empty());
    // At every sampled cycle the six categories sum to the accounted
    // rollup, which itself is components x elapsed cycles.
    EXPECT_EQ(cat_sum, accounted);
    EXPECT_EQ(accounted.rbegin()->second, 8u * run.cycles);
}

TEST(Accounting, ObservationDoesNotPerturbTheRun)
{
    const auto off = sampledRun(0, false);
    const auto on = accountedRun(0);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.result, on.result);
    EXPECT_EQ(off.flat, on.flat);
}

TEST(Accounting, DisabledRunRegistersNoExtraPartitions)
{
    // Zero-cost-when-off is structural: without --cycle-accounting or
    // --sample-every no probe partition exists; with either or both,
    // exactly one more.
    auto partitions = [](bool accounting, std::uint64_t sample_every) {
        CanonConfig cfg;
        cfg.rows = 2;
        cfg.cols = 2;
        cfg.spadEntries = 4;
        Rng rng(77);
        const auto a = randomSparse(32, 16, 0.5, rng);
        const auto b = randomDense(16, 8, rng);
        CanonFabric fabric(cfg, 0);
        fabric.load(mapSpmm(a, b, cfg));
        if (accounting || sample_every > 0) {
            obs::ObsOptions opt;
            opt.cycleAccounting = accounting;
            opt.sampleEvery = sample_every;
            opt.statsJsonOut = "unused.json";
            obs::Collector col(opt);
            obs::ScopedCollector scope(col);
            fabric.run();
        } else {
            fabric.run();
        }
        return fabric.phaseGroups();
    };
    const std::size_t base = partitions(false, 0);
    EXPECT_EQ(partitions(true, 0), base + 1);
    EXPECT_EQ(partitions(false, 25), base + 1);
    EXPECT_EQ(partitions(true, 25), base + 1);
}

// ---------------------------------------------------------------------
// A minimal JSON reader (enough for the two documents we emit).
// ---------------------------------------------------------------------

struct Json
{
    enum class Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    bool has(const std::string &k) const { return obj.count(k) != 0; }
    const Json &
    at(const std::string &k) const
    {
        auto it = obj.find(k);
        if (it == obj.end())
            throw std::runtime_error("missing key: " + k);
        return it->second;
    }
};

class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : s_(text) {}

    Json
    parse()
    {
        Json v = value();
        ws();
        if (i_ != s_.size())
            throw std::runtime_error("trailing JSON garbage");
        return v;
    }

  private:
    void
    ws()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
                s_[i_] == '\r'))
            ++i_;
    }

    char
    peek()
    {
        if (i_ >= s_.size())
            throw std::runtime_error("unexpected end of JSON");
        return s_[i_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected '") + c +
                                     "' at offset " +
                                     std::to_string(i_));
        ++i_;
    }

    Json
    value()
    {
        ws();
        switch (peek()) {
        case '{':
            return object();
        case '[':
            return array();
        case '"': {
            Json v;
            v.kind = Json::Kind::Str;
            v.str = string();
            return v;
        }
        case 't':
        case 'f': {
            Json v;
            v.kind = Json::Kind::Bool;
            v.boolean = peek() == 't';
            i_ += v.boolean ? 4 : 5;
            return v;
        }
        case 'n':
            i_ += 4;
            return Json{};
        default:
            return number();
        }
    }

    Json
    object()
    {
        expect('{');
        Json v;
        v.kind = Json::Kind::Obj;
        ws();
        if (peek() == '}') {
            ++i_;
            return v;
        }
        while (true) {
            ws();
            std::string key = string();
            ws();
            expect(':');
            v.obj.emplace(std::move(key), value());
            ws();
            if (peek() == ',') {
                ++i_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Json
    array()
    {
        expect('[');
        Json v;
        v.kind = Json::Kind::Arr;
        ws();
        if (peek() == ']') {
            ++i_;
            return v;
        }
        while (true) {
            v.arr.push_back(value());
            ws();
            if (peek() == ',') {
                ++i_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (peek() != '"') {
            char c = s_[i_++];
            if (c == '\\') {
                char e = s_[i_++];
                switch (e) {
                case 'n':
                    out += '\n';
                    break;
                case 't':
                    out += '\t';
                    break;
                case 'r':
                    out += '\r';
                    break;
                case 'u':
                    i_ += 4; // control chars; tests never compare them
                    out += '?';
                    break;
                default:
                    out += e; // '"', '\\', '/'
                }
            } else {
                out += c;
            }
        }
        ++i_;
        return out;
    }

    Json
    number()
    {
        std::size_t start = i_;
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' ||
                s_[i_] == 'e' || s_[i_] == 'E'))
            ++i_;
        if (i_ == start)
            throw std::runtime_error("bad JSON number");
        Json v;
        v.kind = Json::Kind::Num;
        v.num = std::stod(s_.substr(start, i_ - start));
        return v;
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

// ---------------------------------------------------------------------
// Engine-level artifact determinism and schema checks.
// ---------------------------------------------------------------------

/**
 * A small 3-point sparsity sweep with every obs output requested.
 * @p policy_axes additionally sweeps tag-banks and spad-flush,
 * exercising the policy grammar through the full engine/obs path.
 */
engine::ScenarioRequest
obsSweepRequest(bool policy_axes = false, bool accounting = false)
{
    cli::Options opt;
    opt.m = 32;
    opt.k = 16;
    opt.n = 8;
    opt.fabric.rows = 2;
    opt.fabric.cols = 2;
    opt.fabric.spadEntries = 4;
    opt.sweepAxes.emplace_back("sparsity", "0.3,0.5,0.8");
    if (policy_axes) {
        opt.sweepAxes.emplace_back("tag-banks", "1,4");
        opt.sweepAxes.emplace_back("spad-flush", "eager,adaptive");
    }
    opt.common.obs.sampleEvery = 50;
    opt.common.obs.seriesOut = "unused-s.csv";
    opt.common.obs.traceOut = "unused-t.json";
    opt.common.obs.statsJsonOut = "unused-j.json";
    opt.common.obs.cycleAccounting = accounting;
    return engine::ScenarioRequest::fromOptions(opt);
}

struct Artifacts
{
    std::string series, trace, stats;
};

Artifacts
renderArtifacts(const engine::ResultSet &rs)
{
    Artifacts a;
    std::ostringstream os;
    rs.obs().writeSeriesCsv(os);
    a.series = os.str();
    os.str("");
    rs.obs().writeTrace(os);
    a.trace = os.str();
    os.str("");
    rs.obs().writeStatsJson(os);
    a.stats = os.str();
    return a;
}

TEST(ObsReport, ArtifactsByteIdenticalAcrossJobs)
{
    engine::Engine one(engine::EngineConfig{.jobs = 1});
    engine::Engine four(engine::EngineConfig{.jobs = 4});
    const auto rs1 = one.run(obsSweepRequest());
    const auto rs4 = four.run(obsSweepRequest());
    ASSERT_TRUE(rs1.ok()) << rs1.error();
    ASSERT_TRUE(rs4.ok()) << rs4.error();
    ASSERT_TRUE(rs1.obs().enabled());

    const auto a1 = renderArtifacts(rs1);
    const auto a4 = renderArtifacts(rs4);
    EXPECT_EQ(a1.series, a4.series);
    EXPECT_EQ(a1.trace, a4.trace);
    EXPECT_EQ(a1.stats, a4.stats);

    // Every scenario was observed (no cache, so all three executed).
    ASSERT_EQ(rs1.scenarios().size(), 3u);
    for (const auto &s : rs1.scenarios()) {
        ASSERT_NE(s.obs, nullptr) << s.job.index;
        EXPECT_FALSE(s.obs->runs.empty()) << s.job.index;
    }
}

TEST(ObsReport, ArtifactsByteIdenticalAcrossJobsUnderPolicyAxes)
{
    // Same gate with tag-banks and spad-flush swept on top of
    // sparsity: 12 scenarios, each observed, byte-identical whether
    // executed serially or on four workers.
    engine::Engine one(engine::EngineConfig{.jobs = 1});
    engine::Engine four(engine::EngineConfig{.jobs = 4});
    const auto rs1 = one.run(obsSweepRequest(true));
    const auto rs4 = four.run(obsSweepRequest(true));
    ASSERT_TRUE(rs1.ok()) << rs1.error();
    ASSERT_TRUE(rs4.ok()) << rs4.error();
    ASSERT_EQ(rs1.scenarios().size(), 12u);

    const auto a1 = renderArtifacts(rs1);
    const auto a4 = renderArtifacts(rs4);
    EXPECT_EQ(a1.series, a4.series);
    EXPECT_EQ(a1.trace, a4.trace);
    EXPECT_EQ(a1.stats, a4.stats);
}

TEST(ObsReport, AccountingArtifactsByteIdenticalAcrossJobs)
{
    engine::Engine one(engine::EngineConfig{.jobs = 1});
    engine::Engine four(engine::EngineConfig{.jobs = 4});
    const auto rs1 = one.run(obsSweepRequest(false, true));
    const auto rs4 = four.run(obsSweepRequest(false, true));
    ASSERT_TRUE(rs1.ok()) << rs1.error();
    ASSERT_TRUE(rs4.ok()) << rs4.error();
    ASSERT_TRUE(rs1.obs().hasAccounting());
    ASSERT_TRUE(rs4.obs().hasAccounting());

    const auto a1 = renderArtifacts(rs1);
    const auto a4 = renderArtifacts(rs4);
    EXPECT_EQ(a1.series, a4.series);
    EXPECT_EQ(a1.trace, a4.trace);
    EXPECT_EQ(a1.stats, a4.stats);

    // The rendered breakdown table is part of the byte contract too.
    std::ostringstream t1, t4;
    rs1.obs().writeAccounting(t1);
    rs4.obs().writeAccounting(t4);
    EXPECT_FALSE(t1.str().empty());
    EXPECT_EQ(t1.str(), t4.str());
    // One table per scenario, fabric rollup row in each.
    EXPECT_NE(t1.str().find("Cycle accounting -- scenario 0"),
              std::string::npos);
    EXPECT_NE(t1.str().find("fabric"), std::string::npos);
}

TEST(ObsReport, StatsJsonCarriesAccountingWithSumInvariant)
{
    engine::Engine eng(engine::EngineConfig{.jobs = 2});
    const auto rs = eng.run(obsSweepRequest(false, true));
    ASSERT_TRUE(rs.ok()) << rs.error();
    std::ostringstream os;
    rs.obs().writeStatsJson(os);

    Json doc = JsonReader(os.str()).parse();
    EXPECT_EQ(doc.at("schema").str, "canon.stats.v2");
    std::size_t components_checked = 0;
    for (const Json &s : doc.at("scenarios").arr) {
        for (const Json &r : s.at("sim").at("runs").arr) {
            ASSERT_TRUE(r.has("accounting"));
            const Json &acct = r.at("accounting");
            const double cycles = acct.at("cycles").num;
            EXPECT_GT(cycles, 0.0);
            for (const Json &c : acct.at("components").arr) {
                double sum = 0;
                for (int cat = 0; cat < obs::kCycleCatCount; ++cat)
                    sum += c.at(obs::cycleCatName(cat)).num;
                EXPECT_EQ(sum, cycles) << c.at("component").str;
                EXPECT_EQ(c.at("total").num, cycles)
                    << c.at("component").str;
                ++components_checked;
            }
            ASSERT_TRUE(r.has("histograms"));
            const auto &hists = r.at("histograms").arr;
            ASSERT_FALSE(hists.empty());
            for (const Json &h : hists)
                EXPECT_EQ(h.at("counts").arr.size(),
                          static_cast<std::size_t>(
                              obs::Histogram::kBuckets));
        }
    }
    EXPECT_GT(components_checked, 0u);
}

namespace
{

std::uint64_t fake_clock_us = 0;

std::uint64_t
fakeClock()
{
    return fake_clock_us += 7;
}

} // namespace

TEST(ObsReport, HostTimersDeterministicUnderInjectedClock)
{
    obs::setHostClockForTest(&fakeClock);
    auto run_once = [] {
        fake_clock_us = 0;
        cli::Options opt;
        opt.m = 16;
        opt.k = 16;
        opt.n = 8;
        opt.fabric.rows = 2;
        opt.fabric.cols = 2;
        opt.fabric.spadEntries = 4;
        opt.common.obs.hostTimers = true;
        opt.common.obs.statsJsonOut = "unused-j.json";
        engine::Engine eng(engine::EngineConfig{.jobs = 1});
        const auto rs =
            eng.run(engine::ScenarioRequest::fromOptions(opt));
        EXPECT_TRUE(rs.ok()) << rs.error();
        std::ostringstream os;
        rs.obs().writeStatsJson(os);
        return os.str();
    };
    const std::string a = run_once();
    const std::string b = run_once();
    obs::setHostClockForTest(nullptr);

    // Same virtual clock, same call sequence: byte-identical dumps.
    EXPECT_EQ(a, b);

    Json doc = JsonReader(a).parse();
    const Json &s = doc.at("scenarios").arr.at(0);
    ASSERT_TRUE(s.has("host"));
    const Json &host = s.at("host");
    // The fake clock advances on every read, so the measured sim
    // phase is non-zero; the uncached engine never probes or stores.
    EXPECT_GT(host.at("simUs").num, 0.0);
    EXPECT_EQ(host.at("cacheProbeUs").num, 0.0);
    EXPECT_EQ(host.at("cacheStoreUs").num, 0.0);
}

TEST(ObsReport, HostTimersAbsentWithoutFlag)
{
    engine::Engine eng(engine::EngineConfig{.jobs = 2});
    const auto rs = eng.run(obsSweepRequest());
    ASSERT_TRUE(rs.ok()) << rs.error();
    std::ostringstream os;
    rs.obs().writeStatsJson(os);
    Json doc = JsonReader(os.str()).parse();
    for (const Json &s : doc.at("scenarios").arr)
        EXPECT_FALSE(s.has("host"));
}

TEST(ObsReport, SeriesCsvShape)
{
    engine::Engine eng(engine::EngineConfig{.jobs = 2});
    const auto rs = eng.run(obsSweepRequest());
    ASSERT_TRUE(rs.ok()) << rs.error();
    std::ostringstream os;
    rs.obs().writeSeriesCsv(os);
    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "scenario,pass,metric,component,cycle,value");
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        ++rows;
        // scenario index is the leading field of every data row.
        EXPECT_TRUE(std::isdigit(
            static_cast<unsigned char>(line.front())))
            << line;
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 5)
            << line;
    }
    EXPECT_GT(rows, 0u);
}

TEST(ObsReport, TraceIsValidJsonWithMonotonicTimestamps)
{
    engine::Engine eng(engine::EngineConfig{.jobs = 2});
    const auto rs = eng.run(obsSweepRequest());
    ASSERT_TRUE(rs.ok()) << rs.error();
    std::ostringstream os;
    rs.obs().writeTrace(os);

    Json doc = JsonReader(os.str()).parse();
    ASSERT_EQ(doc.kind, Json::Kind::Obj);
    EXPECT_EQ(doc.at("otherData").at("schema").str, "canon-trace-1");
    EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");

    const auto &events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, Json::Kind::Arr);
    ASSERT_FALSE(events.arr.empty());

    std::map<std::pair<double, double>, double> last_ts;
    std::size_t spans = 0, counters = 0;
    for (const auto &e : events.arr) {
        const std::string &ph = e.at("ph").str;
        ASSERT_TRUE(ph == "M" || ph == "X" || ph == "i" || ph == "C")
            << ph;
        EXPECT_FALSE(e.at("name").str.empty());
        if (ph == "M")
            continue;
        spans += ph == "X";
        counters += ph == "C";
        if (ph == "X") {
            EXPECT_GE(e.at("dur").num, 0.0);
        }
        if (ph == "i") {
            EXPECT_EQ(e.at("s").str, "t");
        }
        const auto key = std::pair{e.at("pid").num, e.at("tid").num};
        const double ts = e.at("ts").num;
        auto it = last_ts.find(key);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second)
                << "track (" << key.first << "," << key.second
                << ") went backwards";
        }
        last_ts[key] = ts;
    }
    // Per scenario: one "scenario N" span plus one "sim.run" span.
    EXPECT_EQ(spans, 6u);
    EXPECT_GT(counters, 0u);
}

TEST(ObsReport, StatsJsonRoundTripsAgainstProfiles)
{
    engine::Engine eng(engine::EngineConfig{.jobs = 2});
    const auto rs = eng.run(obsSweepRequest());
    ASSERT_TRUE(rs.ok()) << rs.error();
    std::ostringstream os;
    rs.obs().writeStatsJson(os);

    Json doc = JsonReader(os.str()).parse();
    EXPECT_EQ(doc.at("schema").str, "canon.stats.v2");
    const auto &scenarios = doc.at("scenarios");
    ASSERT_EQ(scenarios.arr.size(), rs.scenarios().size());

    for (std::size_t i = 0; i < scenarios.arr.size(); ++i) {
        const Json &s = scenarios.arr[i];
        EXPECT_EQ(static_cast<std::size_t>(s.at("index").num), i);
        const auto &archs = s.at("archs").arr;
        ASSERT_FALSE(archs.empty()) << i;

        // The dumped cycles must match the in-memory profile.
        const auto &cases = rs.scenarios()[i].cases;
        for (const Json &a : archs) {
            const auto &prof = cases.at(archByName(a.at("arch").str).value());
            EXPECT_EQ(
                static_cast<std::uint64_t>(a.at("cycles").num),
                prof.cycles);
        }

        // Executed scenarios carry the flat sim stats.
        const auto &runs = s.at("sim").at("runs").arr;
        ASSERT_FALSE(runs.empty()) << i;
        EXPECT_GT(runs[0].at("cycles").num, 0.0);
        EXPECT_FALSE(runs[0].at("stats").obj.empty());
    }
}

TEST(ObsReport, DisabledRequestYieldsNoObservations)
{
    cli::Options opt;
    opt.m = 16;
    opt.k = 16;
    opt.n = 8;
    opt.fabric.rows = 2;
    opt.fabric.cols = 2;
    opt.fabric.spadEntries = 4;
    engine::Engine eng(engine::EngineConfig{.jobs = 1});
    const auto rs =
        eng.run(engine::ScenarioRequest::fromOptions(opt));
    ASSERT_TRUE(rs.ok()) << rs.error();
    EXPECT_FALSE(rs.obs().enabled());
    ASSERT_EQ(rs.scenarios().size(), 1u);
    EXPECT_EQ(rs.scenarios()[0].obs, nullptr);

    // Disabled writers emit nothing and write no files.
    std::ostringstream os;
    rs.obs().writeSeriesCsv(os);
    rs.obs().writeTrace(os);
    rs.obs().writeStatsJson(os);
    EXPECT_TRUE(os.str().empty());
    EXPECT_TRUE(rs.obs().writeOutputs().empty());
}

} // namespace
} // namespace canon
