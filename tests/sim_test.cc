/**
 * @file
 * Simulation-kernel tests: two-phase channel semantics, the staggered
 * instruction pipeline (the 3-cycle offset of Figure 2/3), and
 * message-channel timing alignment.
 */

#include <gtest/gtest.h>

#include "noc/inst_pipeline.hh"
#include "orch/msg_channel.hh"
#include "sim/latch.hh"

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
    // Cycle 1: column 0 sees it.
    EXPECT_EQ(pipe.tap(0), marker);
    EXPECT_TRUE(pipe.tap(1).isNop());

    for (int c = 1; c < 4; ++c) {
        for (int i = 0; i < kIssueStagger; ++i)
            pipe.tickCommit();
        EXPECT_EQ(pipe.tap(c), marker) << "column " << c;
        if (c + 1 < 4)
            EXPECT_TRUE(pipe.tap(c + 1).isNop());
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
    EXPECT_EQ(pipe.tap(0), i); // held in place
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
