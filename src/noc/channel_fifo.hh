/**
 * @file
 * Staged FIFO channels for the two-phase cycle.
 *
 * ChannelFifo<T>: a small hardware FIFO between two components (e.g. a
 * vertical psum channel between PE rows, or an orchestrator message
 * channel). Pushes and pops staged during a cycle are applied at the
 * commit boundary; the head read during a cycle is the pre-cycle head.
 * Overflow and pop-from-empty panic: in Canon, orchestration is
 * deterministic by construction, so either indicates a mis-programmed
 * FSM (or a simulator bug), never a run-time condition to recover from.
 *
 * Storage is a ring of `capacity` slots held inline, so a channel is
 * one object with no allocation of its own; every capacity in the
 * fabric is at most kMaxChannelCapacity. Committed entries occupy
 * [head, head + size); a staged push is written past the committed
 * tail. Staged pushes count against capacity, so one can never land
 * on the head that a same-cycle pop still reads.
 */

#ifndef CANON_NOC_CHANNEL_FIFO_HH
#define CANON_NOC_CHANNEL_FIFO_HH

#include <array>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace canon
{

/** Largest ring a channel holds inline. */
constexpr std::size_t kMaxChannelCapacity = 8;

template <typename T>
class ChannelFifo
{
  public:
    explicit ChannelFifo(std::size_t capacity, std::string name = "chan")
        : capacity_(capacity), name_(std::move(name))
    {
        panicIf(capacity == 0, "ChannelFifo ", name_, ": zero capacity");
        panicIf(capacity > kMaxChannelCapacity, "ChannelFifo ", name_,
                ": capacity ", capacity, " exceeds the inline ring of ",
                kMaxChannelCapacity);
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** True when a push is staged this cycle, until the commit. */
    bool pushStaged() const { return staged_ != 0; }

    /**
     * Space check for a producer this cycle. Conservative: staged pushes
     * count against capacity, staged pops do not free space until the
     * next cycle (register semantics).
     */
    bool
    canPush() const
    {
        return size_ + staged_ < capacity_;
    }

    /** Head visible this cycle. */
    const T &
    front() const
    {
        panicIf(size_ == 0, "ChannelFifo ", name_, ": front() on empty");
        return ring_[head_];
    }

    /** Stage a push; panics on overflow (deterministic design violated). */
    void
    push(T v)
    {
        panicIf(!canPush(), "ChannelFifo ", name_, ": overflow (cap=",
                capacity_, ")");
        enlist();
        ring_[wrap(head_ + size_ + staged_)] = std::move(v);
        ++staged_;
    }

    /** Stage a pop of the current head. */
    void
    pop()
    {
        panicIf(size_ == 0, "ChannelFifo ", name_, ": pop() on empty");
        panicIf(stagedPop_, "ChannelFifo ", name_, ": double pop in cycle");
        enlist();
        stagedPop_ = true;
    }

    void
    commit()
    {
        if (stagedPop_) {
            head_ = wrap(head_ + 1);
            --size_;
            stagedPop_ = false;
        }
        size_ += staged_;
        staged_ = 0;
    }

    /**
     * Enlist on @p dirty at the first staged push or pop of every
     * cycle, so the owner of the commit boundary commits only the
     * channels that changed (and then clears the list). The channel
     * enlists its own address: it must not move afterwards.
     */
    void commitVia(std::vector<ChannelFifo *> *dirty) { dirty_ = dirty; }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= capacity_ ? i - capacity_ : i;
    }

    void
    enlist()
    {
        if (dirty_ && staged_ == 0 && !stagedPop_)
            dirty_->push_back(this);
    }

    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;   //!< committed entries
    std::size_t staged_ = 0; //!< pushes staged this cycle
    bool stagedPop_ = false;
    std::vector<ChannelFifo *> *dirty_ = nullptr;
    std::array<T, kMaxChannelCapacity> ring_{};
    std::string name_;
};

} // namespace canon

#endif // CANON_NOC_CHANNEL_FIFO_HH
