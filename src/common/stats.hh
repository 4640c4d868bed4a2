/**
 * @file
 * The event counter the simulator's statistics are made of.
 *
 * Components hold their Counters as plain members (the per-cycle
 * increments then touch the component's own cache lines) and name
 * each one once, in their own forEachCounter() list of (leaf name,
 * counter). A fabric enumerates its components' lists as (group,
 * leaf, counter), so a counter reads as `pe0_3.dmemReads`
 * (CanonFabric::forEachCounter); the power model, the stats JSON and
 * the cycle sampler all read that enumeration.
 */

#ifndef CANON_COMMON_STATS_HH
#define CANON_COMMON_STATS_HH

#include <cstdint>

namespace canon
{

/**
 * A monotonically increasing event counter. Not copyable: the cycle
 * sampler points at it and the cycle accountant at the component
 * holding it, so both must stay put.
 */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void operator+=(std::uint64_t n) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

} // namespace canon

#endif // CANON_COMMON_STATS_HH
