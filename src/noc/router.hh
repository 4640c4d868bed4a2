/**
 * @file
 * Per-PE circuit-switched router.
 *
 * Canon's data NoC is deliberately cheap: no backpressure, no virtual
 * channels, no runtime arbitration (Section 2.1). Determinism from the
 * staggered-issue model means the orchestrators *know* when each
 * channel is used; the router only switches circuits named by the
 * current instruction. The paper's structural rule -- one data
 * transfer per cycle per direction -- is a property of the
 * instruction, so it is decided once per instruction, not tracked
 * here: resolve() (isa/instruction.hh) gives LOAD one pop per input
 * port, and the PE's COMMIT panics when a result and a pass-through
 * route name the same output port, since that is a compile-time bug,
 * not a runtime condition.
 *
 * Physical channels between neighbouring PEs are small ChannelFifos
 * owned by the fabric, kChannelDepth deep (below).
 *
 * The per-cycle calls (canPop, readIn, writeOut) run in every busy PE
 * tick, so they are defined here, inline.
 */

#ifndef CANON_NOC_ROUTER_HH
#define CANON_NOC_ROUTER_HH

#include <array>
#include <bit>

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
    /** Attach the channel delivering data *into* this PE from @p d. */
    void bindIn(Dir d, DataChannel *ch);

    /** Attach the channel carrying data *out of* this PE towards @p d. */
    void bindOut(Dir d, DataChannel *ch);

    bool
    hasInput(Dir d) const
    {
        auto *ch = in_[static_cast<int>(d)];
        return ch && !ch->empty();
    }

    /** True iff every input port in @p dirs (bit 1 << Dir) has data. */
    bool
    canPop(std::uint8_t dirs) const
    {
        for (unsigned m = dirs; m != 0; m &= m - 1)
            if (!hasInput(static_cast<Dir>(std::countr_zero(m))))
                return false;
        return true;
    }

    /** Consume the head of the @p d input channel. */
    Vec4
    readIn(Dir d)
    {
        auto *ch = in_[static_cast<int>(d)];
        panicIf(!ch, "Router: no channel bound at ", dirName(d), "_IN");
        ++hops_;
        Vec4 v = ch->front();
        ch->pop();
        return v;
    }

    /** Push onto the @p d output channel. */
    void
    writeOut(Dir d, const Vec4 &v)
    {
        auto *ch = out_[static_cast<int>(d)];
        panicIf(!ch, "Router: no channel bound at ", dirName(d), "_OUT");
        ++hops_;
        ch->push(v);
    }

    bool
    canWriteOut(Dir d) const
    {
        auto *ch = out_[static_cast<int>(d)];
        return ch && ch->canPush();
    }

    /** Visit the hop counter as (leaf name, counter). */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        fn("routerHops", hops_);
    }

  private:
    std::array<DataChannel *, kNumDirs> in_{};
    std::array<DataChannel *, kNumDirs> out_{};
    Counter hops_;
};

} // namespace canon

#endif // CANON_NOC_ROUTER_HH
