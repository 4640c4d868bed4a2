/**
 * @file
 * Orchestrator-layer tests: LUT word packing and indexing (the 6 KB
 * SRAM image), TagFifo / buffer-management
 * invariants, microcode rule compilation and priority, and the
 * Appendix C decision cases observed through a live fabric.
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hh"
#include "core/fabric.hh"
#include "csr.hh"
#include "kernels/spmm.hh"
#include "orch/lut.hh"
#include "orch/tag_fifo.hh"
#include "sparse/generate.hh"
#include "sparse/reference.hh"

namespace canon
{
namespace
{

OutputFields
randomFields(Rng &rng)
{
    OutputFields f;
    f.nextState = static_cast<std::uint8_t>(rng.nextBounded(8));
    f.peOp = static_cast<OpCode>(rng.nextBounded(8));
    f.op1Mode = static_cast<std::uint8_t>(rng.nextBounded(16));
    f.op2Mode = static_cast<std::uint8_t>(rng.nextBounded(16));
    f.resMode = static_cast<std::uint8_t>(rng.nextBounded(16));
    f.routeMode = static_cast<std::uint8_t>(rng.nextBounded(4));
    f.msgMode = static_cast<std::uint8_t>(rng.nextBounded(4));
    f.bufferOp = static_cast<BufferOp>(rng.nextBounded(4));
    f.metaUpd0 = static_cast<std::uint8_t>(rng.nextBounded(4));
    f.metaUpd1 = static_cast<std::uint8_t>(rng.nextBounded(4));
    f.consumeInput = rng.nextBool(0.5);
    f.consumeMsg = rng.nextBool(0.5);
    f.westFeed = static_cast<WestFeed>(rng.nextBounded(3));
    f.emitOutRec = rng.nextBool(0.5);
    f.stallable = rng.nextBool(0.5);
    return f;
}

TEST(Lut, PackFitsIn48Bits)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const auto w = packOutput(randomFields(rng));
        EXPECT_EQ(w >> kLutWordBits, 0u);
    }
}

TEST(Lut, BitstreamIs6KB)
{
    EXPECT_EQ(FsmLut::bitstreamBytes(), 6u * 1024u);
}

TEST(Lut, IndexComposition)
{
    EXPECT_EQ(lutIndex(0, 0, 0), 0);
    EXPECT_EQ(lutIndex(1, 0, 0), 1 << 7);
    EXPECT_EQ(lutIndex(0, 1, 0), 1 << 4);
    EXPECT_EQ(lutIndex(0, 0, 1), 1);
    EXPECT_EQ(lutIndex(7, 7, 15), kLutEntries - 1);
    EXPECT_THROW(lutIndex(8, 0, 0), PanicError);
}

TEST(TagFifo, CircularSlotAssignment)
{
    TagFifo f(4);
    EXPECT_EQ(f.residentCap(), 3);
    EXPECT_EQ(f.tailSlot(), 0);

    f.push(10);
    EXPECT_EQ(f.tailSlot(), 1);
    f.push(11);
    f.push(12);
    EXPECT_TRUE(f.atResidentCap());
    EXPECT_EQ(f.headSlot(), 0);
    EXPECT_EQ(f.headTag(), 10);

    f.pop();
    EXPECT_EQ(f.headSlot(), 1);
    EXPECT_EQ(f.headTag(), 11);
    // Freed slot 0 becomes the new accumulation slot after wrap.
    EXPECT_EQ(f.tailSlot(), 3);
    f.push(13);
    EXPECT_EQ(f.tailSlot(), 0);
}

TEST(TagFifo, SearchFindsPhysicalSlot)
{
    TagFifo f(4);
    f.push(5);
    f.push(9);
    f.pop(); // head now 9 at slot 1
    f.push(7);
    EXPECT_FALSE(f.search(5).has_value());
    ASSERT_TRUE(f.search(9).has_value());
    EXPECT_EQ(*f.search(9), 1);
    ASSERT_TRUE(f.search(7).has_value());
    EXPECT_EQ(*f.search(7), 2);
}

TEST(TagFifo, DepthOneDegeneratesToSingleRegister)
{
    TagFifo f(1);
    EXPECT_EQ(f.residentCap(), 0);
    EXPECT_TRUE(f.atResidentCap());
    // Push-then-pop in one row-end cycle: the just-pushed entry is
    // the head being flushed.
    f.push(3);
    EXPECT_EQ(f.headSlot(), 0);
    EXPECT_EQ(f.headTag(), 3);
    f.pop();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.tailSlot(), 0);
}

TEST(TagFifo, OverCapacityPanics)
{
    TagFifo f(2);
    f.push(1);
    f.push(2);
    EXPECT_THROW(f.push(3), PanicError);
    EXPECT_THROW(TagFifo(0), PanicError);
    EXPECT_THROW(TagFifo(4, 0), PanicError);
    EXPECT_THROW(TagFifo(4, -3), PanicError);
}

TEST(TagFifo, BankedSearchMatchesLinearReference)
{
    // Differential property test: for every bank count, a randomized
    // insert/search/evict sequence must be observation-identical to
    // the 1-bank linear reference -- same hit/miss, same physical
    // slot, same head/tail bookkeeping. Tags are drawn from a small
    // range so duplicates occur and oldest-match semantics is pinned
    // (duplicates hash to the same bank, so bank order decides).
    constexpr int kCapacity = 16;
    const int bank_counts[] = {2, 3, 4, 7, 8, 16, 64};

    TagFifo ref(kCapacity, 1);

    std::deque<TagFifo> banked;
    for (int banks : bank_counts)
        banked.emplace_back(kCapacity, banks);

    Rng rng(77);
    for (int step = 0; step < 4000; ++step) {
        const bool can_push = ref.size() < kCapacity;
        const bool do_push =
            can_push && (ref.empty() || rng.nextBool(0.55));
        if (do_push) {
            const auto tag =
                static_cast<std::uint16_t>(rng.nextBounded(24));
            ref.push(tag);
            for (auto &f : banked)
                f.push(tag);
        } else if (!ref.empty()) {
            ref.pop();
            for (auto &f : banked)
                f.pop();
        }

        const auto probe =
            static_cast<std::uint16_t>(rng.nextBounded(24));
        const auto want = ref.search(probe);
        for (std::size_t i = 0; i < banked.size(); ++i) {
            auto &f = banked[i];
            EXPECT_EQ(f.search(probe), want)
                << bank_counts[i] << " banks, step " << step;
            EXPECT_EQ(f.size(), ref.size());
            EXPECT_EQ(f.tailSlot(), ref.tailSlot());
            if (!ref.empty()) {
                EXPECT_EQ(f.headSlot(), ref.headSlot());
                EXPECT_EQ(f.headTag(), ref.headTag());
            }
        }
    }

    // Counter consistency: one bufferSearches bump per probe
    // everywhere; per-probe compares never exceed the population
    // (checked in aggregate: total compares <= searches * cap), and
    // banking strictly reduces total compare work at this
    // duplicate-heavy occupancy.
    const auto searches = ref.searchCount();
    const auto ref_compares = ref.compareCount();
    EXPECT_EQ(searches, 4000u);
    EXPECT_LE(ref_compares, searches * kCapacity);
    for (std::size_t i = 0; i < banked.size(); ++i) {
        EXPECT_EQ(banked[i].searchCount(), searches);
        EXPECT_LE(banked[i].compareCount(), ref_compares)
            << bank_counts[i] << " banks";
    }
}

TEST(TagFifo, SearchCountersAreMonotonePerProbe)
{
    // Each counted probe bumps searches by exactly 1 and compares by
    // at most the resident population, and never decreases either.
    TagFifo f(8, 4);

    Rng rng(3);
    std::uint64_t prev_s = 0, prev_c = 0;
    for (int step = 0; step < 500; ++step) {
        if (f.size() < 8 && rng.nextBool(0.6))
            f.push(static_cast<std::uint16_t>(rng.nextBounded(12)));
        else if (!f.empty())
            f.pop();
        f.search(static_cast<std::uint16_t>(rng.nextBounded(12)));
        const auto searches = f.searchCount();
        const auto compares = f.compareCount();
        EXPECT_EQ(searches, prev_s + 1);
        EXPECT_GE(compares, prev_c);
        EXPECT_LE(compares - prev_c,
                  static_cast<std::uint64_t>(f.size()));
        prev_s = searches;
        prev_c = compares;
    }
}

// The cost counters may only move through the explicit non-const
// search API: a const view of the buffer (e.g. a diagnostic walk over
// a const fabric) exposes no counted search at compile time.
template <typename T>
concept ConstCountedSearch =
    requires(const T t) { t.search(std::uint16_t{0}); };
static_assert(!ConstCountedSearch<TagFifo>,
              "search() charges cost counters and must not be"
              " callable through a const buffer view");

TEST(TagFifo, ConstProbeDoesNotChargeCounters)
{
    TagFifo f(8, 2);
    f.push(3);
    f.push(4);

    // Every query a const view offers is uncounted.
    const TagFifo &view = f;
    EXPECT_EQ(view.size(), 2);
    EXPECT_EQ(view.headTag(), 3);
    EXPECT_EQ(view.headSlot(), 0);
    EXPECT_EQ(view.tailSlot(), 2);
    EXPECT_FALSE(view.atResidentCap());
    EXPECT_EQ(view.searchCount(), 0u);
    EXPECT_EQ(view.compareCount(), 0u);

    // The counted probe finds tag 4 in the slot its push took and
    // charges.
    EXPECT_EQ(f.search(4), 1);
    EXPECT_EQ(f.searchCount(), 1u);
    EXPECT_GT(f.compareCount(), 0u);
}

TEST(TagFifo, ConstFabricWalkCannotMutateStats)
{
    // End-to-end version of the const-correctness pin: walking every
    // orchestrator buffer and every counter of a finished (const)
    // fabric leaves the fabric's stat snapshot untouched.
    CanonConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.tagBanks = 2;
    CanonFabric fabric(cfg);

    Rng rng(11);
    const auto csr = randomSparse(32, 16, 0.5, rng);
    const auto b = randomDense(16, 16, rng);
    fabric.load(mapSpmm(csr, b, cfg));
    fabric.run();

    const CanonFabric &view = fabric;
    const auto before = view.profile("walk");
    for (int r = 0; r < cfg.rows; ++r) {
        const TagFifo &buffer = view.orch(r).buffer();
        if (!buffer.empty())
            (void)buffer.headTag();
        (void)buffer.tailSlot();
    }
    (void)view.flatStats();
    (void)view.sumCounter("bufferSearches");
    const auto after = view.profile("walk");
    EXPECT_EQ(after.get(Activity::BufferSearches),
              before.get(Activity::BufferSearches));
    EXPECT_EQ(after.get(Activity::TagCompares),
              before.get(Activity::TagCompares));
}

TEST(Program, RulePriorityIsRegistrationOrder)
{
    OrchProgram p("prio");
    p.setPredicates(0, {Predicate::True, Predicate::False,
                        Predicate::False, Predicate::False});
    p.rule(0).when(Predicate::True).next(3); // first: wins
    p.rule(0).next(5);                       // unreachable for cond=1
    p.compile();

    EXPECT_EQ(p.lut().lookup(lutIndex(0, 0, 1)).nextState, 3);
    // Condition bit clear: first rule doesn't match, second does.
    EXPECT_EQ(p.lut().lookup(lutIndex(0, 0, 0)).nextState, 5);
}

TEST(Program, DefaultIsSelfLoopNop)
{
    OrchProgram p("empty");
    p.compile();
    const auto &f = p.lut().lookup(lutIndex(4, 2, 9));
    EXPECT_EQ(f.nextState, 4);
    EXPECT_EQ(f.peOp, OpCode::Nop);
    EXPECT_FALSE(f.consumeInput);
    EXPECT_FALSE(f.consumeMsg);
}

TEST(Program, MenuLimitsEnforced)
{
    OrchProgram p("full");
    for (int i = 0; i < kNumAddrModes - 1; ++i)
        p.addAddrMode(AddrMode::fixed(addrspace::dmem(i)));
    EXPECT_THROW(p.addAddrMode(AddrMode::null()), PanicError);
}

TEST(Program, RuleNeedsSelectedPredicate)
{
    OrchProgram p("preds");
    p.setPredicates(0, {Predicate::InputIsEnd, Predicate::False,
                        Predicate::False, Predicate::False});
    EXPECT_THROW(p.rule(0).when(Predicate::BufferEmpty), PanicError);
}

TEST(Program, SpmmBitstreamLoadsAndRuns)
{
    // The compiled SpMM program, loaded into a fabric, computes
    // correctly: its LUT is the whole control definition.
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.spadEntries = 2;
    Rng rng(5);
    const auto csr = randomSparse(8, 8, 0.5, rng);
    const auto b = randomDense(8, 8, rng);

    CanonFabric fabric(cfg);
    fabric.load(mapSpmm(csr, b, cfg));
    fabric.run();
    EXPECT_EQ(fabric.result(), reference::spmm(csr, b));
}

// ---------------------------------------------------------------------
// Appendix C decision cases, observed on a live fabric.
// ---------------------------------------------------------------------

TEST(SpmmFsm, Case1NormalMacStaysInMacState)
{
    // A single-row dense-ish A with no downstream traffic: the top
    // orchestrator should never leave MAC except at row boundaries.
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.spadEntries = 4;
    Rng rng(6);
    DenseMatrix a(1, 8);
    for (int kk = 0; kk < 8; ++kk)
        a.at(0, kk) = 1;
    const auto b = randomDense(8, 8, rng);
    const auto csr = fromDense(a);

    CanonFabric fabric(cfg);
    fabric.load(mapSpmm(csr, b, cfg));
    // Step a few cycles: while non-zeros stream, state stays MAC.
    for (int t = 0; t < 4; ++t) {
        fabric.step();
        EXPECT_EQ(fabric.orch(0).state(), spmm_state::kMac);
    }
}

TEST(SpmmFsm, Case2ManagedPsumAccumulates)
{
    // Two PE rows, both contributing to the same output rows: the
    // southern orchestrator must enter ACC (managed merge) at least
    // once, and the result is exact.
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.spadEntries = 8;
    Rng rng(7);
    const auto csr = randomSparse(16, 8, 0.2, rng); // dense-ish
    const auto b = randomDense(8, 8, rng);

    CanonFabric fabric(cfg);
    fabric.load(mapSpmm(csr, b, cfg));

    bool saw_acc = false;
    while (!fabric.done()) {
        fabric.step();
        saw_acc |= fabric.orch(1).state() == spmm_state::kAcc;
    }
    EXPECT_TRUE(saw_acc);
    EXPECT_EQ(fabric.result(), reference::spmm(csr, b));
}

TEST(SpmmFsm, Case3ImbalanceCausesBypass)
{
    // Row 0's K-slice is heavily populated while row 1's is nearly
    // empty: row 1 finishes early, so late psums from the north find
    // no managed tag and must be bypassed (forwarded south).
    CanonConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.spadEntries = 2;
    Rng rng(8);
    DenseMatrix a(32, 8);
    for (int m = 0; m < 32; ++m) {
        for (int kk = 0; kk < 4; ++kk) // slice of PE row 0: dense
            a.at(m, kk) = static_cast<Elem>(1 + (m + kk) % 3);
        if (m == 0)
            a.at(m, 4) = 1; // slice of PE row 1: one lonely nnz
    }
    const auto b = randomDense(8, 8, rng);
    const auto csr = fromDense(a);

    CanonFabric fabric(cfg);
    fabric.load(mapSpmm(csr, b, cfg));
    fabric.run();

    const auto flat = fabric.flatStats();
    const auto fwd = flat.at("orch1.fwdAhead") + flat.at("orch1.fwdBehind");
    EXPECT_GT(fwd, 0u) << "row 1 should have bypassed late psums";
    EXPECT_EQ(fabric.result(), reference::spmm(csr, b));
}

} // namespace
} // namespace canon
