/**
 * @file
 * Failure injection: a deterministic fabric must fail *loudly* when
 * its invariants are violated -- a mis-programmed FSM, a starved
 * stream, or an overdriven channel should
 * produce a diagnostic panic or a watchdog trip, never a wrong
 * answer. These tests inject each fault and pin the failure mode.
 */

#include <gtest/gtest.h>

#include "core/fabric.hh"
#include "csr.hh"
#include "kernels/spmm.hh"
#include "sparse/generate.hh"

namespace canon
{
namespace
{

namespace as = addrspace;

CanonConfig
tinyConfig()
{
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.spadEntries = 2;
    return cfg;
}

TEST(FailureInjection, UnprogrammedOrchestratorRejected)
{
    const auto cfg = tinyConfig();
    CanonFabric fabric(cfg);
    KernelMapping empty;
    empty.name = "empty";
    EXPECT_THROW(fabric.load(std::move(empty)), FatalError);
}

TEST(FailureInjection, UncompiledProgramRejected)
{
    const auto cfg = tinyConfig();
    CanonFabric fabric(cfg);
    KernelMapping map;
    map.program = std::make_shared<OrchProgram>("raw");
    map.outRows = 1;
    map.outCols = 8;
    EXPECT_THROW(fabric.load(std::move(map)), PanicError);
}

TEST(FailureInjection, FsmWithoutTerminationTripsWatchdog)
{
    // A program whose rules never reach the done state: the fabric
    // watchdog must panic rather than hang.
    const auto cfg = tinyConfig();
    auto prog = std::make_shared<OrchProgram>("livelock");
    prog->setInitialState(0);
    prog->setDoneState(7); // unreachable
    prog->compile();       // everything self-loops as NOP

    KernelMapping map;
    map.name = "livelock";
    map.program = prog;
    map.outRows = 1;
    map.outCols = 8;
    CanonFabric fabric(cfg);
    fabric.load(std::move(map));
    EXPECT_THROW(fabric.run(10'000), PanicError);
}

TEST(FailureInjection, ReadingStarvedPortPanicsWithPeName)
{
    // An FSM that issues a W_IN consumer without feeding the west
    // edge: the PE's port read must name the culprit.
    const auto cfg = tinyConfig();
    auto prog = std::make_shared<OrchProgram>("starved");
    prog->setPredicates(0, {Predicate::True, Predicate::False,
                            Predicate::False, Predicate::False});
    const int am_win = prog->addAddrMode(
        AddrMode::fixed(as::portIn(Dir::West)));
    const int am_brow =
        prog->addAddrMode(AddrMode::fixed(as::dmem(0)));
    const int am_r0 = prog->addAddrMode(AddrMode::fixed(as::reg(0)));
    prog->rule(0)
        .when(Predicate::True)
        .op(OpCode::SvMac)
        .op1(am_win)
        .op2(am_brow)
        .res(am_r0)
        .next(0); // note: no westFeed
    prog->setDoneState(7);
    prog->compile();

    KernelMapping map;
    map.name = "starved";
    map.program = prog;
    map.outRows = 1;
    map.outCols = 8;
    CanonFabric fabric(cfg);
    fabric.load(std::move(map));
    try {
        fabric.run(100);
        FAIL() << "expected a panic";
    } catch (const PanicError &e) {
        // The diagnostic names the starved resource: either the PE or
        // the west-edge channel it tried to pop.
        const std::string what = e.what();
        EXPECT_TRUE(what.find("pe") != std::string::npos ||
                    what.find("empty") != std::string::npos)
            << what;
    }
}

TEST(FailureInjection, StreamValueBeyondMetaRangeRejected)
{
    const auto cfg = tinyConfig();
    Rng rng(10);
    const auto b = randomDense(8, 8, rng);
    // M >= 2^14 must be rejected by the mapper, not wrap silently.
    const auto giant = fromDense(DenseMatrix(1 << 14, 8));
    EXPECT_THROW(mapSpmm(giant, b, cfg), FatalError);
}

TEST(FailureInjection, DoubleCompilePanics)
{
    OrchProgram p("twice");
    p.compile();
    EXPECT_THROW(p.compile(), PanicError);
}

TEST(FailureInjection, RuleAfterCompilePanics)
{
    OrchProgram p("late");
    p.compile();
    EXPECT_THROW(p.rule(0), PanicError);
}

} // namespace
} // namespace canon
