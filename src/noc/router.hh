/**
 * @file
 * Per-PE circuit-switched router.
 *
 * Canon's data NoC is deliberately cheap: no backpressure, no virtual
 * channels, no runtime arbitration (Section 2.1). Determinism from the
 * staggered-issue model means the orchestrators *know* when each
 * channel is used; the router only switches circuits named by the
 * current instruction. The model enforces the paper's structural rule
 * -- one data transfer per cycle per direction -- by panicking when an
 * instruction stream violates it, since that is a compile-time bug,
 * not a runtime condition.
 *
 * Physical channels between neighbouring PEs are small ChannelFifos
 * owned by the fabric, kChannelDepth deep (below).
 *
 * The per-cycle calls (beginCycle, readIn, writeOut) run in every busy
 * PE tick, so they are defined here, inline.
 */

#ifndef CANON_NOC_ROUTER_HH
#define CANON_NOC_ROUTER_HH

#include <array>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/channel_fifo.hh"

namespace canon
{

/**
 * Default depth of inter-PE data channels. Sized so that the message
 * channel (capacity kMsgWindow, see msg_channel.hh) is always the
 * binding resource: every southbound data vector is announced by
 * exactly one orchestrator message, so unconsumed data per column is
 * bounded by the message window plus pipeline skew, and the data
 * channels themselves can never overflow.
 */
constexpr std::size_t kChannelDepth = 8;

using DataChannel = ChannelFifo<Vec4>;

class Router
{
  public:
    explicit Router(StatGroup &stats) { stats.add("routerHops", hops_); }

    /** Attach the channel delivering data *into* this PE from @p d. */
    void bindIn(Dir d, DataChannel *ch);

    /** Attach the channel carrying data *out of* this PE towards @p d. */
    void bindOut(Dir d, DataChannel *ch);

    /** Reset per-cycle direction-usage accounting. */
    void
    beginCycle()
    {
        usedIn_ = 0;
        usedOut_ = 0;
    }

    bool
    hasInput(Dir d) const
    {
        auto *ch = in_[static_cast<int>(d)];
        return ch && !ch->empty();
    }

    /** Consume the head of the @p d input channel (once per cycle). */
    Vec4
    readIn(Dir d)
    {
        auto *ch = in_[static_cast<int>(d)];
        panicIf(!ch, "Router: no channel bound at ", dirName(d), "_IN");
        panicIf(usedIn_ & bit(d), "Router: second ", dirName(d),
                "_IN transfer in one cycle (one per direction per cycle)");
        usedIn_ |= bit(d);
        ++hops_;
        Vec4 v = ch->front();
        ch->pop();
        return v;
    }

    /** Push onto the @p d output channel (once per cycle). */
    void
    writeOut(Dir d, const Vec4 &v)
    {
        auto *ch = out_[static_cast<int>(d)];
        panicIf(!ch, "Router: no channel bound at ", dirName(d), "_OUT");
        panicIf(usedOut_ & bit(d), "Router: second ", dirName(d),
                "_OUT transfer in one cycle (one per direction per cycle)");
        usedOut_ |= bit(d);
        ++hops_;
        ch->push(v);
    }

    bool
    canWriteOut(Dir d) const
    {
        auto *ch = out_[static_cast<int>(d)];
        return ch && ch->canPush();
    }

  private:
    static std::uint8_t
    bit(Dir d)
    {
        return static_cast<std::uint8_t>(1u << static_cast<int>(d));
    }

    std::array<DataChannel *, kNumDirs> in_{};
    std::array<DataChannel *, kNumDirs> out_{};
    std::uint8_t usedIn_ = 0;  //!< directions read this cycle
    std::uint8_t usedOut_ = 0; //!< directions written this cycle
    Counter hops_;
};

} // namespace canon

#endif // CANON_NOC_ROUTER_HH
