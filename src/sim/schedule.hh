/**
 * @file
 * The partitioned tick schedule behind Simulator.
 *
 * The naive cycle loop pays two virtual calls per registered component
 * per cycle -- on a 32x32 fabric that is thousands of indirect
 * branches before any modelling work happens, and most of them land in
 * empty phase bodies (collectors never commit, channels never
 * compute). TickSchedule removes both costs structurally:
 *
 *  - **Typed partitions.** Components registered through add<T>() are
 *    bucketed by concrete type into contiguous arrays. A partition
 *    advances in a tight loop of direct calls on T -- for a `final`
 *    component class the compiler devirtualizes them -- so a phase
 *    pass is a handful of partition dispatches instead of one
 *    indirect call per component.
 *
 *  - **Dead-phase elision.** A component type whose compute or commit
 *    body is empty declares it with
 *    `static constexpr bool kHasTickCompute = false;` (resp.
 *    `kHasTickCommit`). Its partition is simply absent from that
 *    phase's pass list, so a dead phase costs zero per cycle.
 *
 *  - **Base-pointer components.** A model known only as a Clocked*
 *    (an external embedder model, a test double) registers as
 *    add<Clocked>(c): its partition ticks through the two virtual
 *    Clocked calls, in the same two-phase protocol as every other.
 *
 * Partition order (and registration order within a partition) is
 * irrelevant for results: the two-phase protocol of clocked.hh makes
 * evaluation order within a phase unobservable, which the
 * registration-shuffle determinism tests pin down.
 */

#ifndef CANON_SIM_SCHEDULE_HH
#define CANON_SIM_SCHEDULE_HH

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "sim/latch.hh"

namespace canon
{

namespace detail
{

/** Process-wide dense id per concrete component type. */
inline std::size_t
nextTickTypeId()
{
    static std::atomic<std::size_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
}

template <typename T>
inline std::size_t
tickTypeId()
{
    static const std::size_t id = nextTickTypeId();
    return id;
}

} // namespace detail

/** Phase participation of T; defaults to both phases live. */
template <typename T>
constexpr bool
tickHasCompute()
{
    if constexpr (requires { T::kHasTickCompute; })
        return T::kHasTickCompute;
    else
        return true;
}

template <typename T>
constexpr bool
tickHasCommit()
{
    if constexpr (requires { T::kHasTickCommit; })
        return T::kHasTickCommit;
    else
        return true;
}

/**
 * Contiguous commit list for staged FIFOs: the batched form of the
 * commit phase for data channels. Where the naive loop dedicated one
 * virtual component (or one virtual call per channel) to publishing
 * staged pushes/pops, a commit list is registered as a single typed
 * partition member and drains every attached channel in one
 * non-virtual pass. It participates only in the commit phase.
 */
template <typename T>
class FifoCommitList final
{
  public:
    static constexpr bool kHasTickCompute = false;

    void add(ChannelFifo<T> *ch) { chans_.push_back(ch); }
    std::size_t size() const { return chans_.size(); }

    void tickCompute() {}

    void
    tickCommit()
    {
        for (auto *ch : chans_)
            ch->commit();
    }

  private:
    std::vector<ChannelFifo<T> *> chans_;
};

class TickSchedule
{
  public:
    TickSchedule() = default;
    TickSchedule(const TickSchedule &) = delete;
    TickSchedule &operator=(const TickSchedule &) = delete;

    /**
     * Register @p c (not owned) into the contiguous partition of its
     * concrete type T. T needs tickCompute()/tickCommit() members; it
     * does not need to derive from Clocked.
     */
    template <typename T>
    void
    add(T *c)
    {
        const std::size_t id = detail::tickTypeId<T>();
        if (id >= byType_.size())
            byType_.resize(id + 1, nullptr);
        if (!byType_[id]) {
            auto p = std::make_unique<Partition<T>>();
            byType_[id] = p.get();
            enlist(p.get(), tickHasCompute<T>(), tickHasCommit<T>());
            owned_.push_back(std::move(p));
        }
        static_cast<Partition<T> *>(byType_[id])->items.push_back(c);
    }

    /** Advance every partition's compute (phase-1) pass. */
    void
    tickCompute()
    {
        for (auto *p : computeList_)
            p->compute();
    }

    /** Advance every partition's commit (phase-2) pass. */
    void
    tickCommit()
    {
        for (auto *p : commitList_)
            p->commit();
    }

    /** Live partitions, for tests/introspection. */
    std::size_t partitionCount() const { return owned_.size(); }

  private:
    class PartitionBase
    {
      public:
        virtual ~PartitionBase() = default;
        virtual void compute() = 0;
        virtual void commit() = 0;
    };

    template <typename T>
    class Partition final : public PartitionBase
    {
      public:
        std::vector<T *> items;

        void
        compute() override
        {
            // T is concrete: for a `final` component class these are
            // direct calls in a loop over a contiguous array.
            for (T *c : items)
                c->tickCompute();
        }

        void
        commit() override
        {
            for (T *c : items)
                c->tickCommit();
        }
    };

    void
    enlist(PartitionBase *p, bool has_compute, bool has_commit)
    {
        if (has_compute)
            computeList_.push_back(p);
        if (has_commit)
            commitList_.push_back(p);
    }

    std::vector<PartitionBase *> byType_;
    std::vector<std::unique_ptr<PartitionBase>> owned_;
    std::vector<PartitionBase *> computeList_;
    std::vector<PartitionBase *> commitList_;
};

} // namespace canon

#endif // CANON_SIM_SCHEDULE_HH
