/**
 * @file
 * The orchestrator-side view of the scratchpad psum buffer.
 *
 * Section 4.1.1: the scratchpad "operates as a FIFO queue, and each PE
 * processes only the partial sums that are explicitly managed at any
 * given time ... The orchestrator actively monitors buffer occupancy,
 * maintaining metadata to track the oldest row index present in the
 * context queue."
 *
 * TagFifo is that metadata: a circular queue of row-ID tags mapping to
 * physical scratchpad slots, with the `is_managing(RID)` search of
 * Listing 1. One slot is always reserved as the in-flight accumulation
 * slot of the row currently being MACed (tailSlot()); resident entries
 * are therefore bounded by capacity - 1. Depth 1 degenerates to the
 * "single register" baseline of Figure 17: nothing is buffered and
 * every row end flushes immediately.
 *
 * Tags are searched associatively. The paper keeps a contiguous-RID
 * window in two meta registers; the associative form additionally
 * supports rows whose slice is empty being skipped in the meta stream,
 * which the contiguous window cannot address. DESIGN.md records this
 * interpretation; the cost model charges a CAM-style search per probe.
 *
 * The search can be banked (the scale-out spatial-architecture
 * literature's standard fix for coordination-state lookups): tags are
 * hashed by `tag % banks` into independently searched banks, each
 * holding its members in global insertion order. A probe scans only
 * the bank its tag hashes to, so `tagCompares` counts per-bank work
 * and drops ~banks-fold at high occupancy. Because duplicate tags
 * hash to the same bank and bank order preserves insertion order, the
 * first match in a bank is the oldest match globally: results are
 * identical to the single-bank linear reference for every operation
 * sequence (pinned by a differential property test in orch_test).
 */

#ifndef CANON_ORCH_TAG_FIFO_HH
#define CANON_ORCH_TAG_FIFO_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"

namespace canon
{

class TagFifo
{
  public:
    explicit TagFifo(int capacity, int banks = 1) : capacity_(capacity)
    {
        panicIf(capacity <= 0, "TagFifo: capacity must be positive");
        panicIf(banks <= 0, "TagFifo: banks must be positive");
        banks_.resize(static_cast<std::size_t>(banks));
    }

    /** Resident entries allowed while a row is still accumulating. */
    int residentCap() const { return capacity_ - 1; }

    int size() const { return static_cast<int>(tags_.size()); }
    bool empty() const { return tags_.empty(); }

    /** Will the next push exceed the resident budget (flush needed)? */
    bool atResidentCap() const { return size() >= residentCap(); }

    /** Cost-counter reads for the obs cycle accountant (per-cycle
     *  search/compare deltas drive the tag_search classification and
     *  the search-length histogram). */
    std::uint64_t searchCount() const { return searches_.value(); }
    std::uint64_t compareCount() const { return compares_.value(); }

    /** Visit the cost counters as (leaf name, counter). */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        fn("bufferSearches", searches_);
        fn("tagCompares", compares_);
        fn("bufferPushes", pushes_);
    }

    /**
     * Physical slot the current (unpushed) row accumulates into. The
     * head is below capacity and the size never exceeds it, so one
     * conditional subtract wraps the sum.
     */
    int
    tailSlot() const
    {
        const int slot = headSlot_ + size();
        return slot >= capacity_ ? slot - capacity_ : slot;
    }

    int
    headSlot() const
    {
        panicIf(tags_.empty(), "TagFifo: headSlot() on empty buffer");
        return headSlot_;
    }

    std::uint16_t
    headTag() const
    {
        panicIf(tags_.empty(), "TagFifo: headTag() on empty buffer");
        return tags_.front();
    }

    /**
     * is_managing(tag): physical slot if resident, nullopt if not.
     * Non-const because a probe is charged work: it bumps the
     * bufferSearches/tagCompares cost counters.
     */
    std::optional<int>
    search(std::uint16_t tag)
    {
        ++searches_;
        const auto &bank = banks_[bankOf(tag)];
        for (const Entry &e : bank) {
            ++compares_;
            if (e.tag == tag)
                return e.slot;
        }
        return std::nullopt;
    }

    /** Materialize the accumulation slot as a managed entry. */
    void
    push(std::uint16_t tag)
    {
        panicIf(size() >= capacity_, "TagFifo: push beyond capacity");
        ++pushes_;
        banks_[bankOf(tag)].push_back(Entry{tailSlot(), tag});
        tags_.push_back(tag);
    }

    /** Retire the oldest entry (its slot becomes reusable). */
    void
    pop()
    {
        panicIf(tags_.empty(), "TagFifo: pop on empty buffer");
        auto &bank = banks_[bankOf(tags_.front())];
        panicIf(bank.empty() || bank.front().slot != headSlot_,
                "TagFifo: bank order diverged from global order");
        bank.pop_front();
        tags_.pop_front();
        if (++headSlot_ == capacity_)
            headSlot_ = 0;
    }

    void
    reset()
    {
        tags_.clear();
        for (auto &bank : banks_)
            bank.clear();
        headSlot_ = 0;
    }

  private:
    struct Entry
    {
        int slot;
        std::uint16_t tag;
    };

    std::size_t
    bankOf(std::uint16_t tag) const
    {
        return tag % banks_.size();
    }

    int capacity_;
    std::deque<std::uint16_t> tags_; //!< global FIFO order
    std::vector<std::deque<Entry>> banks_; //!< per-bank insertion order
    int headSlot_ = 0;
    Counter searches_;
    Counter compares_;
    Counter pushes_;
};

} // namespace canon

#endif // CANON_ORCH_TAG_FIFO_HH
