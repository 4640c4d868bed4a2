/**
 * @file
 * Vector-granular on-chip RAM: the storage behind both the per-PE data
 * memory (4 KB of INT8, read as 4-element vectors) and the dual-ported
 * scratchpad (Vec4 psum entries).
 *
 * Port discipline is structural in Canon: an instruction can name each
 * memory at most once per operand role, and the 3-stage pipeline
 * separates read (LOAD) from write (COMMIT) -- "the read ports ... are
 * accessed only during the LOAD stage ... write ports ... exclusively
 * during the COMMIT stage" (Section 3.1). The PE model enforces the
 * compile-time operand restrictions; VecRam checks bounds and counts
 * accesses for the power model. Reads and writes run in every busy PE
 * tick, so they are defined here and forced inline.
 *
 * The lane type is the fabricated width: VecRam<Elem> (INT8) is the
 * data memory, VecRam<Word> (INT32) the scratchpad. Lanes widen to a
 * Vec4 on read; a lane that does not fit the memory's width panics on
 * write, since nothing in the datapath narrows a value.
 */

#ifndef CANON_MEM_VECRAM_HH
#define CANON_MEM_VECRAM_HH

#include <array>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace canon
{

template <typename T>
class VecRam
{
  public:
    /**
     * @param name  instance name for diagnostics; the access counters
     *              are named `<name>Reads` / `<name>Writes`
     * @param slots number of vector entries
     */
    VecRam(std::string name, int slots);

    int slots() const { return static_cast<int>(data_.size()); }

    /** Panic unless @p slot names an entry of this memory. */
    void
    checkSlot(int slot) const
    {
        panicIf(slot < 0 || slot >= slots(), "VecRam ", name_, ": slot ",
                slot, " out of ", slots());
    }

    // Forced inline: as a call, read() returns its Vec4 through memory
    // and the PE's next load of it stalls on store forwarding.
    [[gnu::always_inline]] Vec4
    read(int slot)
    {
        checkSlot(slot);
        ++reads_;
        const Lanes &l = data_[static_cast<std::size_t>(slot)];
        return Vec4{{l[0], l[1], l[2], l[3]}};
    }

    [[gnu::always_inline]] void
    write(int slot, const Vec4 &v)
    {
        checkSlot(slot);
        store(slot, v);
        ++writes_;
    }

    /** Visit the access counters as (leaf name, counter). */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        fn(name_ + "Reads", reads_);
        fn(name_ + "Writes", writes_);
    }

    /** Direct initialization (data placement before execution). */
    void
    poke(int slot, const Vec4 &v)
    {
        checkSlot(slot);
        store(slot, v);
    }

  private:
    using Lanes = std::array<T, kSimdWidth>;

    /** Narrow @p v into @p slot; a lane that does not fit panics
     *  before anything is stored. */
    void
    store(int slot, const Vec4 &v)
    {
        if constexpr (sizeof(T) < sizeof(Word))
            for (int i = 0; i < kSimdWidth; ++i)
                panicIf(v[i] < std::numeric_limits<T>::min() ||
                            v[i] > std::numeric_limits<T>::max(),
                        "VecRam ", name_, ": lane ", i, " value ", v[i],
                        " at slot ", slot, " does not fit its ",
                        8 * sizeof(T), "-bit lanes");
        Lanes &l = data_[static_cast<std::size_t>(slot)];
        for (int i = 0; i < kSimdWidth; ++i)
            l[i] = static_cast<T>(v[i]);
    }

    std::string name_;
    std::vector<Lanes> data_;
    Counter reads_;
    Counter writes_;
};

extern template class VecRam<Elem>;
extern template class VecRam<Word>;

} // namespace canon

#endif // CANON_MEM_VECRAM_HH
