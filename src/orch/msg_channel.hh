/**
 * @file
 * Inter-orchestrator messages (Figure 5's ORCH_MSG / MSG_ID paths).
 *
 * A message is a 3-bit ID plus a 16-bit value; both the IDs' meanings
 * and the value encodings are kernel conventions (the hardware only
 * moves them). Messages travel between vertically adjacent
 * orchestrators with a fixed latency of kIssueStagger + 1 cycles so
 * that a message announcing a psum flush becomes visible to the
 * downstream orchestrator exactly when the flushed vector from the
 * first PE column becomes readable at the downstream PE's north port
 * -- the alignment that makes dynamic decisions deterministic.
 */

#ifndef CANON_ORCH_MSG_CHANNEL_HH
#define CANON_ORCH_MSG_CHANNEL_HH

#include <array>
#include <cstdint>

#include "noc/inst_pipeline.hh"
#include "sim/latch.hh"

namespace canon
{

/** Message IDs used by the kernel programs in this repository. */
enum OrchMsgId : std::uint8_t
{
    kMsgNone = 0,
    kMsgPsum = 1, //!< "a partial sum for row <value> is in flight"
    kMsgAVec = 2, //!< "streamed vector <value> is on the north channel"
};

/**
 * Maximum unconsumed messages between two orchestrators. This is the
 * fabric's flow-control window: a producer whose action would push a
 * message (and therefore a southbound data vector) stalls when the
 * window is exhausted, bounding data-channel occupancy structurally.
 */
constexpr std::size_t kMsgWindow = 4;

struct OrchMsg
{
    std::uint8_t id = kMsgNone;
    std::uint16_t value = 0;

    friend bool
    operator==(const OrchMsg &a, const OrchMsg &b)
    {
        return a.id == b.id && a.value == b.value;
    }
};

/**
 * Message pipe: a kIssueStagger-stage delay line feeding a small FIFO
 * at the consumer. Push during tickCompute; the message becomes
 * consumable kIssueStagger + 1 cycles later.
 */
class MsgChannel final
{
  public:
    explicit MsgChannel(std::string name = "msg")
        : fifo_(kMsgWindow + kIssueStagger + 1, std::move(name))
    {
    }

    /**
     * Producer-side window check: counts everything unconsumed --
     * staged, in the delay line, and in the consumer FIFO. At most
     * kMsgWindow messages may be outstanding.
     */
    bool canPush() const { return size() < kMsgWindow; }

    void
    push(const OrchMsg &m)
    {
        panicIf(stagedValid_, "MsgChannel: double push in one cycle");
        panicIf(m.id == kMsgNone, "MsgChannel: pushing a None message");
        staged_ = m;
        stagedValid_ = true;
    }

    /** Consumer side. */
    bool empty() const { return fifo_.empty(); }
    const OrchMsg &front() const { return fifo_.front(); }
    void pop() { fifo_.pop(); }

    /**
     * Unconsumed messages in flight: staged + delay line + consumer
     * FIFO. This is the channel occupancy the obs histograms record.
     */
    std::size_t
    size() const
    {
        std::size_t n = fifo_.size() + (stagedValid_ ? 1 : 0);
        for (const auto &m : delay_)
            if (m.id != kMsgNone)
                ++n;
        return n;
    }

    /** Pushes stage externally; the delay line shifts at commit. */
    void
    tickCommit()
    {
        // Shift the delay line; the oldest stage drains into the FIFO.
        if (delay_.back().id != kMsgNone)
            fifo_.push(delay_.back());
        for (std::size_t i = delay_.size() - 1; i > 0; --i)
            delay_[i] = delay_[i - 1];
        delay_[0] = stagedValid_ ? staged_ : OrchMsg{};
        stagedValid_ = false;
        fifo_.commit();
    }

  private:
    std::array<OrchMsg, kIssueStagger> delay_{};
    OrchMsg staged_{};
    bool stagedValid_ = false;
    ChannelFifo<OrchMsg> fifo_;
};

} // namespace canon

#endif // CANON_ORCH_MSG_CHANNEL_HH
