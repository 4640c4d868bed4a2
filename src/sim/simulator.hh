/**
 * @file
 * The top-level cycle loop.
 *
 * Simulator owns no hardware; models register themselves (or are
 * registered by their parent) and the loop advances all of them in the
 * two-phase protocol of clocked.hh. addTyped<T>() buckets each
 * component into the contiguous partition of its type T (schedule.hh),
 * advanced by direct calls with dead phases elided. A model known only
 * by a base pointer registers as addTyped<Clocked>(c) and ticks through
 * the two virtual Clocked calls. Registration order and partition shape
 * never affect results. A watchdog bounds runaway simulations: a
 * mis-programmed FSM that never reaches the done predicate fails
 * loudly rather than hanging a test.
 */

#ifndef CANON_SIM_SIMULATOR_HH
#define CANON_SIM_SIMULATOR_HH

#include <functional>

#include "common/types.hh"
#include "sim/clocked.hh"
#include "sim/schedule.hh"

namespace canon
{

class Simulator
{
  public:
    Simulator() = default;

    /**
     * Register a component into the partition of its type T; not
     * owned. Order does not affect results. T needs tickCompute()/
     * tickCommit() members and may declare dead phases (see
     * schedule.hh); it does not need to derive from Clocked.
     */
    template <typename T>
    void
    addTyped(T *c)
    {
        schedule_.add<T>(c);
    }

    Cycle now() const { return now_; }

    /**
     * Live schedule partitions. Tests use this to pin the
     * structural zero-cost-when-off contract: an unobserved run must
     * register exactly the partitions a pre-obs fabric had.
     */
    std::size_t partitionCount() const
    {
        return schedule_.partitionCount();
    }

    /** Advance exactly one cycle. */
    void
    step()
    {
        schedule_.tickCompute();
        schedule_.tickCommit();
        ++now_;
    }

    /**
     * Run until @p done returns true (checked before each cycle).
     * @return cycles elapsed in this call.
     * Panics after @p max_cycles as a watchdog.
     */
    Cycle run(const std::function<bool()> &done,
              Cycle max_cycles = 500'000'000);

    /** Run for a fixed number of cycles. */
    void runFor(Cycle cycles);

  private:
    TickSchedule schedule_;
    Cycle now_ = 0;
};

} // namespace canon

#endif // CANON_SIM_SIMULATOR_HH
