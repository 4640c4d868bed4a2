/**
 * @file
 * Two-phase clocked-component interface.
 *
 * Every hardware model advances in two phases per cycle:
 *
 *  - tickCompute(): read any *visible* state (your own and other
 *    components'), decide what happens this cycle, and stage updates.
 *  - tickCommit(): publish staged updates so they become visible at the
 *    next cycle.
 *
 * The split makes evaluation order irrelevant within a cycle -- the
 * classic cycle-simulator hazard of one component observing another's
 * same-cycle write cannot occur. ChannelFifo (latch.hh) stages state
 * for exactly this protocol.
 */

#ifndef CANON_SIM_CLOCKED_HH
#define CANON_SIM_CLOCKED_HH

namespace canon
{

class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Phase 1: observe visible state, stage this cycle's effects. */
    virtual void tickCompute() = 0;

    /** Phase 2: publish staged effects. */
    virtual void tickCommit() = 0;
};

} // namespace canon

#endif // CANON_SIM_CLOCKED_HH
