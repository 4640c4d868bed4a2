/**
 * @file
 * Staged state for two-phase clocked models.
 *
 * ChannelFifo<T>: a small hardware FIFO between two components (e.g. a
 * vertical psum channel between PE rows, or an orchestrator message
 * channel). Pushes and pops staged during a cycle are applied at the
 * commit boundary; the head read during a cycle is the pre-cycle head.
 * Overflow and pop-from-empty panic: in Canon, orchestration is
 * deterministic by construction, so either indicates a mis-programmed
 * FSM (or a simulator bug), never a run-time condition to recover from.
 */

#ifndef CANON_SIM_LATCH_HH
#define CANON_SIM_LATCH_HH

#include <deque>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace canon
{

template <typename T>
class ChannelFifo
{
  public:
    explicit ChannelFifo(std::size_t capacity, std::string name = "chan")
        : cap_(capacity), name_(std::move(name))
    {
        panicIf(cap_ == 0, "ChannelFifo ", name_, ": zero capacity");
    }

    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }
    std::size_t capacity() const { return cap_; }

    /**
     * Space check for a producer this cycle. Conservative: staged pushes
     * count against capacity, staged pops do not free space until the
     * next cycle (register semantics).
     */
    bool
    canPush() const
    {
        return q_.size() + stagedPush_.size() < cap_;
    }

    /** Head visible this cycle. */
    const T &
    front() const
    {
        panicIf(q_.empty(), "ChannelFifo ", name_, ": front() on empty");
        return q_.front();
    }

    /** Stage a push; panics on overflow (deterministic design violated). */
    void
    push(T v)
    {
        panicIf(!canPush(), "ChannelFifo ", name_, ": overflow (cap=",
                cap_, ")");
        stagedPush_.push_back(std::move(v));
    }

    /** Stage a pop of the current head. */
    void
    pop()
    {
        panicIf(q_.empty(), "ChannelFifo ", name_, ": pop() on empty");
        panicIf(stagedPop_, "ChannelFifo ", name_, ": double pop in cycle");
        stagedPop_ = true;
    }

    void
    commit()
    {
        if (stagedPop_) {
            q_.pop_front();
            stagedPop_ = false;
        }
        for (auto &v : stagedPush_)
            q_.push_back(std::move(v));
        stagedPush_.clear();
    }

    void
    clear()
    {
        q_.clear();
        stagedPush_.clear();
        stagedPop_ = false;
    }

  private:
    std::deque<T> q_;
    std::vector<T> stagedPush_;
    bool stagedPop_ = false;
    std::size_t cap_;
    std::string name_;
};

} // namespace canon

#endif // CANON_SIM_LATCH_HH
