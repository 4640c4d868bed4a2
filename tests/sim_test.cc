/**
 * @file
 * Simulation-kernel tests: two-phase channel semantics, the staggered
 * instruction pipeline (the 3-cycle offset of Figure 2/3), and
 * message-channel timing alignment.
 */

#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "noc/channel_fifo.hh"
#include "noc/inst_pipeline.hh"
#include "orch/msg_channel.hh"

namespace canon
{
namespace
{

TEST(ChannelFifo, PushPopOrdering)
{
    ChannelFifo<int> ch(4, "t");
    ch.push(1);
    ch.push(2);
    EXPECT_TRUE(ch.empty()); // staged, not visible
    ch.commit();
    EXPECT_EQ(ch.size(), 2u);
    EXPECT_EQ(ch.front(), 1);
    ch.pop();
    EXPECT_EQ(ch.front(), 1); // pop applies at commit
    ch.commit();
    EXPECT_EQ(ch.front(), 2);
}

TEST(ChannelFifo, OverflowPanics)
{
    ChannelFifo<int> ch(2, "t");
    ch.push(1);
    ch.push(2);
    EXPECT_FALSE(ch.canPush());
    EXPECT_THROW(ch.push(3), PanicError);
}

TEST(ChannelFifo, CapacityMustFitTheInlineRing)
{
    EXPECT_THROW(ChannelFifo<int>(0, "t"), PanicError);
    EXPECT_THROW(ChannelFifo<int>(kMaxChannelCapacity + 1, "t"),
                 PanicError);
    // The largest ring fills, wraps and drains in order.
    ChannelFifo<int> ch(kMaxChannelCapacity, "t");
    int next_in = 0;
    int next_out = 0;
    for (int cycle = 0; cycle < 20; ++cycle) {
        while (ch.canPush())
            ch.push(next_in++);
        if (!ch.empty()) {
            EXPECT_EQ(ch.front(), next_out++);
            ch.pop();
        }
        ch.commit();
    }
    EXPECT_EQ(ch.size(), kMaxChannelCapacity - 1);
}

TEST(ChannelFifo, PopEmptyPanics)
{
    ChannelFifo<int> ch(2, "t");
    EXPECT_THROW(ch.pop(), PanicError);
    EXPECT_THROW(ch.front(), PanicError);
}

TEST(ChannelFifo, DoublePopPanics)
{
    ChannelFifo<int> ch(2, "t");
    ch.push(1);
    ch.commit();
    ch.pop();
    EXPECT_THROW(ch.pop(), PanicError);
}

TEST(ChannelFifo, StagedPushCountsAgainstCapacity)
{
    ChannelFifo<int> ch(2, "t");
    ch.push(1);
    ch.commit();
    ch.pop();     // frees space only next cycle
    ch.push(2);   // 1 resident + 1 staged = at capacity
    EXPECT_FALSE(ch.canPush());
}

TEST(ChannelFifo, RingWrapsAroundWithInterleavedPushesAndPops)
{
    // Capacity 3 and 12 values: head and tail each lap the ring four
    // times, with pops and pushes sharing most cycles and the channel
    // filling up again and again.
    ChannelFifo<int> ch(3, "t");
    std::deque<int> ref; // committed contents
    int next = 0;
    for (int cycle = 0; next < 12 || !ref.empty(); ++cycle) {
        ASSERT_LT(cycle, 40);
        const bool pop = !ref.empty() && cycle % 3 != 0;
        if (pop) {
            EXPECT_EQ(ch.front(), ref.front()) << "cycle " << cycle;
            ch.pop();
        }
        std::vector<int> pushed;
        for (int i = 0; i <= cycle % 2 && next < 12 && ch.canPush(); ++i) {
            ch.push(next);
            pushed.push_back(next++);
        }
        ch.commit();
        if (pop)
            ref.pop_front();
        ref.insert(ref.end(), pushed.begin(), pushed.end());
        ASSERT_EQ(ch.size(), ref.size()) << "cycle " << cycle;
    }
    EXPECT_EQ(next, 12);
}

TEST(ChannelFifo, SameCyclePopAndPushAtCapacityKeepHead)
{
    ChannelFifo<int> ch(3, "t");
    ch.push(0); // move the head off slot 0
    ch.commit();
    ch.pop();
    ch.commit();
    ch.push(1);
    ch.push(2);
    ch.commit();

    // The push that reaches capacity lands on the slot behind the
    // head, not on the head the same-cycle pop still reads.
    ch.pop();
    ch.push(3);
    EXPECT_EQ(ch.front(), 1);
    EXPECT_FALSE(ch.canPush());
    ch.commit();
    EXPECT_EQ(ch.size(), 2u);
    EXPECT_EQ(ch.front(), 2);

    // Full: a staged pop frees no space until the commit.
    ch.push(4);
    ch.commit();
    ch.pop();
    EXPECT_FALSE(ch.canPush());
    EXPECT_THROW(ch.push(5), PanicError);
    EXPECT_EQ(ch.front(), 2);
    ch.commit();
    EXPECT_TRUE(ch.canPush());
    for (int want : {3, 4}) {
        EXPECT_EQ(ch.front(), want);
        ch.pop();
        ch.commit();
    }
    EXPECT_TRUE(ch.empty());
}

TEST(ChannelFifo, EnlistsOnDirtyListOncePerCycle)
{
    std::vector<ChannelFifo<int> *> dirty;
    ChannelFifo<int> a(4, "a");
    ChannelFifo<int> b(4, "b");
    a.commitVia(&dirty);
    b.commitVia(&dirty);
    a.push(1);
    a.push(2);
    EXPECT_EQ(dirty, (std::vector<ChannelFifo<int> *>{&a}));
    a.commit();
    dirty.clear();

    EXPECT_EQ(a.front(), 1); // reads stage nothing
    EXPECT_TRUE(dirty.empty());
    b.push(9);
    a.pop();
    a.push(3);
    EXPECT_EQ(dirty, (std::vector<ChannelFifo<int> *>{&b, &a}));
}

/** @p cur resolved against @p prev, as a tap shows it. */
DecodedInst
resolved(const DecodedInst &prev, DecodedInst cur)
{
    resolve(prev, cur);
    return cur;
}

TEST(InstPipeline, StaggerIsThreeCyclesPerColumn)
{
    // "issued to the first PE in cycle 1, then traverses a 3-cycle
    // pipeline before reaching the second PE in cycle 4."
    InstPipeline pipe(4);
    Instruction marker;
    marker.op = OpCode::VMov;
    marker.op1 = addrspace::dmem(9);

    pipe.issue(marker);
    pipe.tickCommit();
    // Cycle 1: column 0 sees it, resolved against the NOP before it.
    const DecodedInst tapped = resolved(DecodedInst{}, decode(marker));
    EXPECT_EQ(pipe.tap(0), tapped);
    EXPECT_TRUE(pipe.tap(1).isNop());

    for (int c = 1; c < 4; ++c) {
        for (int i = 0; i < kIssueStagger; ++i)
            pipe.tickCommit();
        EXPECT_EQ(pipe.tap(c), tapped) << "column " << c;
        if (c + 1 < 4) {
            EXPECT_TRUE(pipe.tap(c + 1).isNop());
        }
    }
}

TEST(InstPipeline, DrainsToNops)
{
    InstPipeline pipe(3);
    Instruction i;
    i.op = OpCode::VAdd;
    pipe.issue(i);
    pipe.tickCommit();
    EXPECT_FALSE(pipe.drained());
    for (int t = 0; t < kIssueStagger * 2 + 1; ++t)
        pipe.tickCommit();
    EXPECT_TRUE(pipe.drained());
}

TEST(InstPipeline, FreezeHoldsTaps)
{
    InstPipeline pipe(2);
    Instruction i;
    i.op = OpCode::SvMac;
    pipe.issue(i);
    pipe.tickCommit();
    pipe.freeze(true);
    for (int t = 0; t < 10; ++t)
        pipe.tickCommit();
    EXPECT_EQ(pipe.tap(0), resolved(DecodedInst{}, decode(i))); // held
}

TEST(InstPipeline, TapsFollowIssueOverSeveralLaps)
{
    // 3 columns are 7 stages; 30 cycles of distinct issues lap the
    // ring four times. Column c always sees the instruction column 0
    // saw kIssueStagger * c cycles earlier, resolved against the one
    // issued the cycle before it.
    constexpr int kCols = 3;
    InstPipeline pipe(kCols);
    std::vector<Instruction> issued;
    for (int t = 0; t < 30; ++t) {
        Instruction i;
        i.op = OpCode::VMov;
        i.op1 = addrspace::dmem(t);
        pipe.issue(i);
        issued.push_back(i);
        pipe.tickCommit();
        for (int c = 0; c < kCols; ++c) {
            const int src = t - kIssueStagger * c;
            const DecodedInst prev =
                src > 0 ? decode(issued[src - 1]) : DecodedInst{};
            EXPECT_EQ(pipe.tap(c), src >= 0
                                       ? resolved(prev, decode(issued[src]))
                                       : DecodedInst{})
                << "cycle " << t << " column " << c;
        }
    }
}

TEST(InstPipeline, FreezeHoldsTapsAfterWrap)
{
    auto mov = [](int slot) {
        Instruction i;
        i.op = OpCode::VMov;
        i.op1 = addrspace::dmem(slot);
        return i;
    };
    auto movAfter = [&mov](int slot) {
        return resolved(decode(mov(slot - 1)), decode(mov(slot)));
    };
    InstPipeline pipe(2); // 4 stages
    for (int t = 0; t < 10; ++t) {
        pipe.issue(mov(t));
        pipe.tickCommit();
    }
    pipe.freeze(true);
    for (int t = 0; t < 10; ++t) {
        pipe.issue(mov(100 + t)); // dropped while frozen
        pipe.tickCommit();
    }
    EXPECT_EQ(pipe.tap(0), movAfter(9));
    EXPECT_EQ(pipe.tap(1), movAfter(6));

    pipe.freeze(false);
    pipe.tickCommit();
    EXPECT_TRUE(pipe.tap(0).isNop());
    EXPECT_EQ(pipe.tap(1), movAfter(7));
}

TEST(InstPipeline, ColumnsValidatedBeforeAllocating)
{
    // A bad width is a PanicError, not an allocation failure.
    for (const int columns : {0, -1}) {
        try {
            InstPipeline pipe(columns);
            ADD_FAILURE() << columns << " columns accepted";
        } catch (const PanicError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "InstPipeline: need at least one column"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(InstPipeline, TapOutOfRangePanics)
{
    InstPipeline pipe(2);
    EXPECT_NO_THROW(pipe.tap(1));
    EXPECT_THROW(pipe.tap(2), PanicError);
    EXPECT_THROW(pipe.tap(-1), PanicError);
}

TEST(InstPipeline, DoubleIssuePanics)
{
    InstPipeline pipe(2);
    pipe.issue(nopInst());
    EXPECT_THROW(pipe.issue(nopInst()), PanicError);
}

TEST(MsgChannel, FixedDeliveryLatency)
{
    // A message pushed at cycle t is consumable at t + stagger + 1:
    // aligned with the flushed vector reaching the neighbour's north
    // port.
    MsgChannel ch;
    ch.push({kMsgPsum, 42});
    int latency = 0;
    while (ch.empty()) {
        ch.tickCommit();
        ++latency;
        ASSERT_LE(latency, 10);
    }
    EXPECT_EQ(latency, kIssueStagger + 1);
    EXPECT_EQ(ch.front().value, 42);
}

TEST(MsgChannel, WindowLimitsOutstanding)
{
    MsgChannel ch;
    for (std::size_t i = 0; i < kMsgWindow; ++i) {
        ASSERT_TRUE(ch.canPush()) << i;
        ch.push({kMsgPsum, static_cast<std::uint16_t>(i)});
        ch.tickCommit();
    }
    EXPECT_FALSE(ch.canPush());
    // Consuming reopens the window.
    while (ch.empty())
        ch.tickCommit();
    ch.pop();
    ch.tickCommit();
    EXPECT_TRUE(ch.canPush());
}

TEST(MsgChannel, OrderPreserved)
{
    MsgChannel ch;
    ch.push({kMsgPsum, 1});
    ch.tickCommit();
    ch.push({kMsgPsum, 2});
    for (int i = 0; i < 8; ++i)
        ch.tickCommit();
    ASSERT_FALSE(ch.empty());
    EXPECT_EQ(ch.front().value, 1);
    ch.pop();
    ch.tickCommit();
    EXPECT_EQ(ch.front().value, 2);
}

} // namespace
} // namespace canon
