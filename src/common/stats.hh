/**
 * @file
 * A small statistics framework in the spirit of gem5's stats package.
 *
 * Components own a StatGroup; they register named Counters against
 * it. Groups nest, so a fabric exposes `pe03.dmemReads` style paths.
 * The power model consumes the flat view.
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

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

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
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /**
     * Register (or fetch) a counter under this group. A name that
     * contains '.' panics: it would forge a nested flat path and
     * silently shadow (or be shadowed by) a real child's entry in the
     * flat view. So does a name already taken by a child group.
     */
    Counter &counter(const std::string &name);

    /**
     * Create a nested child group. Duplicate registration panics:
     * two components merging into one group would silently share (and
     * double-count) any same-named counters in the flat view. A name
     * containing '.' or already taken by a counter panics too.
     */
    StatGroup &child(const std::string &name);

    /** Fetch an existing child group; a missing name panics. */
    StatGroup &childAt(const std::string &name) const;

    const std::string &name() const { return name_; }

    /** Sum a counter with @p leaf name across this subtree. */
    std::uint64_t sumCounter(const std::string &leaf) const;

    /** Flatten the subtree into `path -> value` entries. */
    std::map<std::string, std::uint64_t> flatten() const;

    /**
     * Visit every counter in the subtree as (flat dotted path,
     * counter), counters of a group before its children, names in
     * lexicographic order -- the deterministic enumeration the
     * cycle sampler resolves its probes from. The visited references
     * stay valid for the group's lifetime (counters are node-based).
     */
    void visitCounters(
        const std::function<void(const std::string &path,
                                 const Counter &ctr)> &fn) const;

  private:
    void flattenInto(const std::string &prefix,
                     std::map<std::string, std::uint64_t> &out) const;

    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, std::unique_ptr<StatGroup>> children_;
};

} // namespace canon

#endif // CANON_COMMON_STATS_HH
