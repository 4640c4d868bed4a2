/**
 * @file
 * A small statistics framework in the spirit of gem5's stats package.
 *
 * Components hold their Counters as plain members (the per-cycle
 * increments then touch the component's own cache lines) and register
 * each one by name in a StatGroup. Groups nest, so a fabric exposes
 * `pe03.dmemReads` style paths. The power model consumes the flat view.
 */

#ifndef CANON_COMMON_STATS_HH
#define CANON_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace canon
{

/**
 * A monotonically increasing event counter. Not copyable: a group
 * points at it, so it (and the component holding it) must stay put.
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

/**
 * A named collection of statistics. Groups form a tree; leaf values are
 * registered by the owning component and read back via flat dotted paths.
 *
 * A group holds one pointer per registered counter, so it must not be
 * read after a component that registered a counter in it is destroyed
 * (the fabric declares its group before its components for this).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /**
     * Register @p ctr, owned by the caller, as @p name. A name that
     * contains '.' panics: it would forge a nested flat path and
     * silently shadow (or be shadowed by) a real child's entry in the
     * flat view. So does a name already taken by a child group, and a
     * name already registered: two components would otherwise claim
     * one flat path.
     */
    void add(const std::string &name, Counter &ctr);

    /**
     * Create a nested child group. Duplicate registration panics:
     * two components merging into one group would silently share (and
     * double-count) any same-named counters in the flat view. A name
     * containing '.' or already taken by a counter panics too.
     */
    StatGroup &child(const std::string &name);

    const std::string &name() const { return name_; }

    /** Sum a counter with @p leaf name across this subtree. */
    std::uint64_t sumCounter(const std::string &leaf) const;

    /** Flatten the subtree into `path -> value` entries. */
    std::map<std::string, std::uint64_t> flatten() const;

    /**
     * Visit every counter in the subtree as (flat dotted path,
     * counter), counters of a group before its children, names in
     * lexicographic order -- the deterministic enumeration the
     * cycle sampler resolves its probes from. The visited counters
     * stay valid while the components that registered them live; the
     * path string only during the call.
     */
    void visitCounters(
        const std::function<void(const std::string &path,
                                 const Counter &ctr)> &fn) const;

  private:
    /** visitCounters() below @p path, this group's prefix. */
    void visitInto(std::string &path,
                   const std::function<void(const std::string &path,
                                            const Counter &ctr)> &fn)
        const;

    std::string name_;
    std::map<std::string, Counter *> counters_;
    std::map<std::string, std::unique_ptr<StatGroup>> children_;
};

} // namespace canon

#endif // CANON_COMMON_STATS_HH
