/**
 * @file
 * The folded run (CanonFabric::runForProfile): only column 0 ticks and
 * every other PE takes its row's column-0 counters. So, against the
 * full run():
 *
 *  - cycles, the profile and every flattened stat are identical, on
 *    every row-sliced kernel, fabric shape and policy setting;
 *  - so are they under tick-order shuffles and across worker counts;
 *  - a mis-scheduled mapping panics with the same text, including a
 *    column 1 that pops the channel column 0 never filled;
 *  - result() is fatal after a folded run;
 *  - a fabric the fold's argument does not cover runs in full.
 */

#include <array>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "cli/options.hh"
#include "core/fabric.hh"
#include "csr.hh"
#include "engine/engine.hh"
#include "kernels/dense_cadence.hh"
#include "kernels/sddmm.hh"
#include "kernels/spmm.hh"
#include "obs/collector.hh"
#include "sparse/generate.hh"
#include "sparse/reference.hh"

namespace canon
{
namespace
{

namespace as = addrspace;

struct Outcome
{
    Cycle cycles = 0;
    ExecutionProfile profile;
    std::map<std::string, std::uint64_t> stats;
};

/** Run @p map on a fresh fabric; folded when @p fold (and required
 *  to have folded: result() must then be fatal). */
Outcome
execute(const CanonConfig &cfg, const KernelMapping &map, bool fold,
        std::uint64_t shuffle_seed = 0)
{
    CanonFabric fabric(cfg, shuffle_seed);
    fabric.load(map);
    Outcome out;
    out.cycles = fold ? fabric.runForProfile() : fabric.run();
    if (fold) {
        EXPECT_THROW(fabric.result(), FatalError) << "the run did not fold";
    }
    out.profile = fabric.profile("fold");
    out.stats = fabric.flatStats();
    return out;
}

void
expectSame(const Outcome &full, const Outcome &folded,
           const std::string &what)
{
    EXPECT_EQ(folded.cycles, full.cycles) << what;
    EXPECT_EQ(folded.profile.cycles, full.profile.cycles) << what;
    EXPECT_EQ(folded.profile.activity, full.profile.activity) << what;
    EXPECT_EQ(folded.stats, full.stats) << what;
}

/** The west stream of @p map's row @p row, as tokens. */
std::vector<MetaToken>
tokens(const KernelMapping &map, int row)
{
    MetaStream s = map.rowStreams[static_cast<std::size_t>(row)];
    // Past any start cycle, peek() shows the stream's tokens.
    constexpr Cycle kPastAnyStart = std::numeric_limits<Cycle>::max();
    // End is implicit: peek() shows it once the tokens run out.
    std::vector<MetaToken> out;
    for (MetaToken t; (t = s.peek(kPastAnyStart)).kind != TokenKind::End;
         s.advance())
        out.push_back(t);
    return out;
}

/**
 * A one-state program for hand-built failure and eligibility cases:
 * each non-zero token issues @p op with @p op1 / @p res (fixed
 * addresses), @p route, and a west feed of the token when
 * @p west_feed; the End token finishes. Row 0 streams @p nnz tokens.
 */
KernelMapping
oneRuleMapping(const CanonConfig &cfg, OpCode op, Addr op1, Addr res,
               std::uint8_t route, bool west_feed, int nnz)
{
    auto prog = std::make_shared<OrchProgram>("one-rule");
    prog->setPredicates(0, {Predicate::InputIsEnd, Predicate::False,
                            Predicate::False, Predicate::False});
    auto &rule = prog->rule(0)
                     .whenNot(Predicate::InputIsEnd)
                     .op(op)
                     .op1(prog->addAddrMode(AddrMode::fixed(op1)))
                     .res(prog->addAddrMode(AddrMode::fixed(res)))
                     .consumeInput();
    if (route != 0)
        rule.route(prog->addRouteMode(route));
    if (west_feed)
        rule.westFeed(WestFeed::TokenData);
    prog->rule(0).when(Predicate::InputIsEnd).next(1);
    prog->setDoneState(1);
    prog->compile();

    KernelMapping map;
    map.name = "one-rule";
    map.program = prog;
    map.rowStreams.emplace_back(
        std::vector<MetaToken>(static_cast<std::size_t>(nnz),
                               MetaToken::nnz(0, 1)));
    map.outRows = 1;
    map.outCols = cfg.cols * kSimdWidth;
    return map;
}

/** The panic text @p run raises, or "" if it raises none. */
std::string
panicText(const std::function<void()> &run)
{
    try {
        run();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

/** run() and runForProfile() of @p map must panic alike. */
std::string
expectSamePanic(const CanonConfig &cfg, const KernelMapping &map)
{
    const std::string full = panicText([&] {
        CanonFabric fabric(cfg);
        fabric.load(map);
        fabric.run(100'000);
    });
    const std::string folded = panicText([&] {
        CanonFabric fabric(cfg);
        fabric.load(map);
        fabric.runForProfile(100'000);
    });
    EXPECT_FALSE(full.empty());
    EXPECT_EQ(folded, full);
    return full;
}

TEST(Fold, MatchesFullRunOnEveryRowSlicedKernel)
{
    // Random shapes and seeds on fabrics from one row to 64, from two
    // columns to 64; each kernel under both flush policies, banked
    // and unbanked tag search, and scratchpads of 1 to 64 entries.
    const std::array<std::pair<int, int>, 9> fabrics{{{1, 8},
                                                      {8, 2},
                                                      {3, 5},
                                                      {8, 8},
                                                      {4, 16},
                                                      {16, 16},
                                                      {32, 32},
                                                      {8, 64},
                                                      {64, 4}}};
    const std::array<int, 7> spads{1, 2, 3, 4, 8, 16, 64};
    const char *const kernels[] = {"spmm", "gemm", "nm-spmm",
                                   "sddmm-window"};
    Rng pick(2602);
    int n = 0;
    for (const auto &[rows, cols] : fabrics) {
        for (const char *kernel : kernels) {
            CanonConfig cfg;
            cfg.rows = rows;
            cfg.cols = cols;
            cfg.spadEntries =
                spads[static_cast<std::size_t>(n) % spads.size()];
            cfg.tagBanks = n % 3 == 1 ? 4 : 1;
            cfg.spadFlush = n % 2 == 1 ? SpadFlushPolicy::Adaptive
                                       : SpadFlushPolicy::Eager;
            ++n;
            const std::uint64_t seed = pick.next();
            Rng rng(seed);
            const int tile_n = cols * kSimdWidth;
            const int m = static_cast<int>(pick.nextRange(1, 3 * rows + 8));
            const std::string k_name = kernel;
            KernelMapping map;
            if (k_name == "spmm") {
                const int k = rows * static_cast<int>(pick.nextRange(1, 6));
                const double sparsity = pick.nextDouble() * 0.95;
                const auto a = randomSparse(m, k, sparsity, rng);
                map = mapSpmm(a, randomDense(k, tile_n, rng), cfg);
            } else if (k_name == "nm-spmm") {
                const int pattern = pick.nextBool(0.5) ? 4 : 8;
                const int keep = static_cast<int>(pick.nextRange(1, 2));
                const int k =
                    rows * pattern * static_cast<int>(pick.nextRange(1, 2));
                const auto a = nmStructured(m, k, keep, pattern, rng);
                map = mapNmSpmm(a, randomDense(k, tile_n, rng), keep,
                                pattern, cfg);
            } else {
                // A sliding-window SDDMM runs its band as the dense
                // m x k product; its k is the head dimension.
                const int k =
                    rows * static_cast<int>(pick.nextRange(
                               1, k_name == "gemm" ? 4 : 8));
                map = mapGemm(randomDense(m, k, rng),
                              randomDense(k, tile_n, rng), cfg);
            }
            std::ostringstream what;
            what << kernel << " on " << rows << "x" << cols << " m=" << m
                 << " spad=" << cfg.spadEntries
                 << " banks=" << cfg.tagBanks << " seed=" << seed
                 << (cfg.spadFlush == SpadFlushPolicy::Adaptive
                         ? " adaptive"
                         : " eager");
            expectSame(execute(cfg, map, false), execute(cfg, map, true),
                       what.str());
        }
    }
}

/**
 * A random program: each token kind (non-zero, row end, aux) issues
 * one instruction drawn from a menu of west pops, east and south
 * pushes and routes, each south push announced by a PSUM message; a
 * PSUM from the north is relayed south, and in the done state too when
 * @p rng says so. Rows stream random token mixes. Many draws panic or
 * never finish, and then the folded run must fail the same way.
 */
KernelMapping
randomProgramMapping(const CanonConfig &cfg, Rng &rng)
{
    using P = Predicate;
    auto prog = std::make_shared<OrchProgram>("random");
    prog->setPredicates(0, {P::InputIsEnd, P::InputIsRowEnd, P::InputIsAux,
                            P::False});
    const auto mode = [&](Addr a) {
        return prog->addAddrMode(AddrMode::fixed(a));
    };
    const int w_in = mode(as::portIn(Dir::West));
    const int e_out = mode(as::portOut(Dir::East));
    const int s_out = mode(as::portOut(Dir::South));
    const int r0 = mode(as::reg(0));
    const int r1 = mode(as::reg(1));
    const int d0 = mode(as::dmem(0));
    const int rt_w2e = prog->addRouteMode(kRouteW2E);
    const int rt_n2s = prog->addRouteMode(kRouteN2S);
    const int mm_psum =
        prog->addMsgMode(MsgMode::emit(kMsgPsum, ValueSel::Zero));
    const int mm_fwd = prog->addMsgMode(MsgMode::forward());

    prog->rule(0).onMsg(kMsgPsum).route(rt_n2s).msg(mm_fwd).consumeMsg()
        .stallable();
    if (rng.nextBool(0.7))
        prog->rule(1).onMsg(kMsgPsum).route(rt_n2s).msg(mm_fwd)
            .consumeMsg().stallable();
    const auto draw = [&](Rule &r) {
        switch (rng.nextBounded(7)) {
          case 0: // read west
            r.op(OpCode::VMov).op1(w_in).res(r0).westFeed(
                WestFeed::TokenData);
            break;
          case 1: // send east, read nothing
            r.op(OpCode::VMov).op1(r0).res(e_out);
            break;
          case 2: // pass west to east through the result
            r.op(OpCode::VMov).op1(w_in).res(e_out).westFeed(
                WestFeed::ZeroVec);
            break;
          case 3: // SpMM's MAC
            r.op(OpCode::SvMac).op1(w_in).op2(d0).res(r1).route(rt_w2e)
                .westFeed(WestFeed::TokenData);
            break;
          case 4: // flush south
            r.op(OpCode::VFlush).op1(r1).res(s_out).msg(mm_psum)
                .stallable();
            break;
          case 5:
            r.op(OpCode::VAdd).op1(r0).op2(r1).res(r1);
            break;
          default:
            break; // NOP
        }
    };
    draw(prog->rule(0).onNoMsg().whenNot(P::InputIsEnd)
             .whenNot(P::InputIsRowEnd).whenNot(P::InputIsAux)
             .consumeInput());
    draw(prog->rule(0).onNoMsg().when(P::InputIsRowEnd).consumeInput());
    draw(prog->rule(0).onNoMsg().when(P::InputIsAux).consumeInput());
    prog->rule(0).onNoMsg().when(P::InputIsEnd).next(1);
    prog->setDoneState(1);
    prog->compile();

    KernelMapping map;
    map.name = "random";
    map.program = prog;
    for (int r = 0; r < cfg.rows; ++r) {
        std::vector<MetaToken> row(rng.nextBounded(14));
        for (auto &t : row) {
            const auto kind = rng.nextBounded(3);
            t = kind == 0 ? MetaToken::nnz(0, 1)
                          : kind == 1 ? MetaToken::rowEnd(0)
                                      : MetaToken::aux();
        }
        map.rowStreams.emplace_back(std::move(row));
    }
    map.outRows = 1;
    map.outCols = cfg.cols * kSimdWidth;
    return map;
}

TEST(Fold, MatchesFullRunOnRandomPrograms)
{
    // The end rule and column 1's replayed pops against schedules no
    // kernel uses: a vector that waits in the channel into column 1,
    // east pushes nobody pops, and rows that finish while others
    // still relay.
    const std::array<std::pair<int, int>, 6> fabrics{
        {{1, 2}, {2, 2}, {2, 3}, {3, 4}, {4, 2}, {1, 5}}};
    Rng rng(2603);
    int finished = 0;
    for (int i = 0; i < 300; ++i) {
        CanonConfig cfg;
        std::tie(cfg.rows, cfg.cols) = fabrics[static_cast<std::size_t>(i) %
                                               fabrics.size()];
        const KernelMapping map = randomProgramMapping(cfg, rng);
        Outcome full;
        const std::string full_panic = panicText([&] {
            CanonFabric fabric(cfg);
            fabric.load(map);
            full.cycles = fabric.run(2'000);
            full.profile = fabric.profile("fold");
            full.stats = fabric.flatStats();
        });
        Outcome folded;
        const std::string folded_panic = panicText([&] {
            CanonFabric fabric(cfg);
            fabric.load(map);
            folded.cycles = fabric.runForProfile(2'000);
            EXPECT_THROW(fabric.result(), FatalError);
            folded.profile = fabric.profile("fold");
            folded.stats = fabric.flatStats();
        });
        const std::string what = "program " + std::to_string(i);
        EXPECT_EQ(folded_panic, full_panic) << what;
        if (full_panic.empty()) {
            ++finished;
            expectSame(full, folded, what);
        }
    }
    // Both kinds of outcome are exercised.
    EXPECT_GT(finished, 30);
    EXPECT_LT(finished, 270);
}

TEST(Fold, ResultAfterFoldedRunIsFatal)
{
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    Rng rng(41);
    const auto a = randomSparse(8, 8, 0.5, rng);
    const auto b = randomDense(8, 8, rng);
    CanonFabric folded(cfg);
    folded.load(mapSpmm(a, b, cfg));
    folded.runForProfile();
    EXPECT_THROW(folded.result(), FatalError);

    CanonFabric full(cfg);
    full.load(mapSpmm(a, b, cfg));
    full.run();
    EXPECT_EQ(full.result(), reference::spmm(a, b));
}

TEST(Fold, IneligibleFabricsRunInFull)
{
    // Each case breaks one condition of the fold. runForProfile() then
    // simulates every PE, and the product is there to read.
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 4;
    Rng rng(42);
    const auto a = randomSparse(12, 8, 0.5, rng);
    const auto b = randomDense(8, 16, rng);

    {
        SCOPED_TRACE("an obs probe (--sample-every)");
        obs::ObsOptions opt;
        opt.sampleEvery = 10;
        opt.statsJsonOut = "unused.json";
        obs::Collector col(opt);
        obs::ScopedCollector scope(col);
        CanonFabric fabric(cfg);
        fabric.load(mapSpmm(a, b, cfg));
        fabric.runForProfile();
        EXPECT_EQ(fabric.result(), reference::spmm(a, b));
    }
    {
        SCOPED_TRACE("a fabric that has already stepped");
        CanonFabric fabric(cfg);
        fabric.load(mapSpmm(a, b, cfg));
        fabric.step();
        fabric.runForProfile();
        EXPECT_EQ(fabric.result(), reference::spmm(a, b));
    }
    {
        SCOPED_TRACE("a single column");
        CanonConfig one = cfg;
        one.cols = 1;
        const auto b1 = randomDense(8, 4, rng);
        CanonFabric fabric(one);
        fabric.load(mapSpmm(a, b1, one));
        fabric.runForProfile();
        EXPECT_EQ(fabric.result(), reference::spmm(a, b1));
    }
    {
        SCOPED_TRACE("a north-fed mapping (SDDMM)");
        const auto da = randomDense(8, 16, rng);
        const auto db = randomDense(16, 8, rng);
        const auto mask = randomMask(8, 8, 0.5, rng);
        CanonFabric fabric(cfg);
        fabric.load(mapSddmm(mask, da, db, cfg));
        fabric.runForProfile();
        EXPECT_EQ(fabric.result(), reference::sddmm(mask, da, db));
    }
    {
        SCOPED_TRACE("a program that writes data memory");
        const auto map =
            oneRuleMapping(cfg, OpCode::VMov, as::portIn(Dir::West),
                           as::dmem(0), kRouteW2E, true, 6);
        ASSERT_TRUE(map.program->writesDmem());
        CanonFabric fabric(cfg);
        fabric.load(map);
        fabric.runForProfile();
        EXPECT_NO_THROW(fabric.result());
    }
    {
        SCOPED_TRACE("spatial mode");
        CanonFabric fabric(cfg);
        fabric.configureSpatial(
            std::vector<std::vector<Instruction>>(
                2, std::vector<Instruction>(4, nopInst())));
        KernelMapping idle = oneRuleMapping(
            cfg, OpCode::Nop, as::kNullAddr, as::kNullAddr, 0, false, 0);
        fabric.load(std::move(idle));
        fabric.runForProfile();
        EXPECT_NO_THROW(fabric.result());
    }
}

TEST(Fold, ProgramsOfTheFoldedKernelsNeverWriteDataMemory)
{
    CanonConfig cfg;
    Rng rng(43);
    const auto a = randomDense(16, 32, rng);
    const auto b = randomDense(32, cfg.cols * kSimdWidth, rng);
    EXPECT_FALSE(
        mapSpmm(fromDense(a), b, cfg).program->writesDmem());
    EXPECT_FALSE(mapGemm(a, b, cfg).program->writesDmem());
    EXPECT_FALSE(mapNmSpmm(nmStructured(16, 32, 2, 4, rng), b, 2, 4, cfg)
                     .program->writesDmem());

    // An indexed result counts when it can wrap into the data memory,
    // and not when its whole range lies above it.
    for (const auto &[base, wraps] :
         {std::pair{Addr{0xF000}, true}, std::pair{as::kRegBase, false}}) {
        auto prog = std::make_shared<OrchProgram>("indexed");
        AddrMode zero;
        zero.kind = AddrMode::Kind::Zero;
        prog->rule(0)
            .op(OpCode::VMov)
            .op1(prog->addAddrMode(zero))
            .res(prog->addAddrMode(
                AddrMode::indexed(base, ValueSel::InputValue)));
        prog->compile();
        EXPECT_EQ(prog->writesDmem(), wraps) << base;
    }
}

TEST(Fold, MisScheduledMappingsPanicAlike)
{
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 4;
    cfg.dmemSlots = 64;
    Rng rng(44);

    {
        SCOPED_TRACE("column 1 pops the channel column 0 never fills");
        // Column 0 reads the orchestrator's west feed but forwards
        // nothing east.
        const std::string what = expectSamePanic(
            cfg, oneRuleMapping(cfg, OpCode::VMov, as::portIn(Dir::West),
                                as::reg(0), 0, true, 4));
        EXPECT_NE(what.find("horiz0_1: front() on empty"),
                  std::string::npos)
            << what;
    }
    {
        SCOPED_TRACE("column 0 overfills the channel into column 1");
        // Every column sends east and none reads west: column 0's
        // ninth push overflows first.
        const std::string what = expectSamePanic(
            cfg, oneRuleMapping(cfg, OpCode::VMov, as::reg(0),
                                as::portOut(Dir::East), 0, false, 12));
        EXPECT_NE(what.find("horiz0_1: overflow"), std::string::npos)
            << what;
    }
    for (const bool gemm : {false, true}) {
        SCOPED_TRACE(gemm ? "gemm" : "spmm");
        // A non-zero whose coordinate lies past the data memory.
        const auto a = randomSparse(16, 32, gemm ? 0.0 : 0.5, rng);
        const auto b = randomDense(32, cfg.cols * kSimdWidth, rng);
        KernelMapping map = gemm ? mapGemm(toDense(a), b, cfg)
                                 : mapSpmm(a, b, cfg);
        auto row = tokens(map, 1);
        for (auto &t : row) {
            if (t.kind == TokenKind::Nnz) {
                t.value = static_cast<std::uint16_t>(cfg.dmemSlots + 5);
                break;
            }
        }
        map.rowStreams[1] = MetaStream(row);
        const std::string what = expectSamePanic(cfg, map);
        EXPECT_NE(what.find("dmem: slot 69 out of 64"), std::string::npos)
            << what;
    }
}

TEST(Determinism, FoldedRunsIdenticalUnderShuffles)
{
    // A shuffled folded run ticks column 0's rows, and column 1's
    // replayed pops, in another order: nothing it produces may change.
    CanonConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.spadEntries = 2;
    Rng rng(45);
    const auto sparse = randomSparse(24, 16, 0.6, rng);
    const auto dense = randomDense(24, 16, rng);
    const auto b = randomDense(16, 16, rng);
    for (const KernelMapping &map :
         {mapSpmm(sparse, b, cfg),
          mapGemm(dense, b, cfg)}) {
        const Outcome full = execute(cfg, map, false);
        for (std::uint64_t seed : {0ull, 1ull, 2ull, 3ull})
            expectSame(full, execute(cfg, map, true, seed),
                       map.name + " seed " + std::to_string(seed));
    }
}

TEST(Determinism, FoldedRunsIdenticalAcrossWorkerCounts)
{
    // Every row-sliced workload folds under the engine; its table and
    // per-run flat stats (--stats-json) match at one and four workers.
    cli::Options opt;
    opt.m = 48;
    opt.k = 32;
    opt.n = 40;
    opt.fabric.rows = 4;
    opt.fabric.cols = 4;
    opt.sweepAxes.emplace_back("workload",
                               "spmm,gemm,spmm-nm,sddmm-window");
    opt.sweepAxes.emplace_back("spad-flush", "eager,adaptive");
    opt.common.obs.statsJsonOut = "unused.json";
    const auto req = engine::ScenarioRequest::fromOptions(opt);

    std::string rendered[2];
    int i = 0;
    for (const int jobs : {1, 4}) {
        engine::Engine eng(engine::EngineConfig{.jobs = jobs});
        const auto rs = eng.run(req);
        ASSERT_TRUE(rs.ok()) << rs.error();
        std::ostringstream os;
        rs.sweepTable().print(os);
        rs.obs().writeStatsJson(os);
        rendered[i++] = os.str();
    }
    EXPECT_NE(rendered[0].find("pe3_3"), std::string::npos);
    EXPECT_EQ(rendered[0], rendered[1]);
}

} // namespace
} // namespace canon
