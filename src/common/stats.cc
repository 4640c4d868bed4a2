#include "common/stats.hh"

#include <memory>

namespace canon
{

namespace
{

/**
 * Shared registration guard: '.' is the flat-path separator, so a
 * leaf or child named "a.b" would forge a nested path and collide
 * with a real child "a"'s subtree in the flat map.
 */
void
checkStatName(const StatGroup &group, const std::string &name,
              const char *kind)
{
    panicIf(name.empty(), "StatGroup '", group.name(), "': empty ",
            kind, " name");
    panicIf(name.find('.') != std::string::npos, "StatGroup '",
            group.name(), "': ", kind, " name '", name,
            "' contains '.', which would forge a nested flat path");
}

} // namespace

void
StatGroup::add(const std::string &name, Counter &ctr)
{
    checkStatName(*this, name, "counter");
    panicIf(children_.count(name) != 0, "StatGroup '", name_,
            "': counter '", name,
            "' collides with a child group of the same name");
    panicIf(!counters_.emplace(name, &ctr).second, "StatGroup '", name_,
            "': duplicate counter '", name,
            "' (two components would claim one flat path)");
}

StatGroup &
StatGroup::child(const std::string &name)
{
    checkStatName(*this, name, "child");
    panicIf(children_.count(name) != 0, "StatGroup '", name_,
            "': duplicate child '", name,
            "' (two components would silently share one flat"
            " subtree)");
    panicIf(counters_.count(name) != 0, "StatGroup '", name_,
            "': child '", name,
            "' collides with a counter of the same name");
    auto it = children_
                  .emplace(name, std::make_unique<StatGroup>(name))
                  .first;
    return *it->second;
}

std::uint64_t
StatGroup::sumCounter(const std::string &leaf) const
{
    std::uint64_t total = 0;
    visitCounters([&](const std::string &path, const Counter &ctr) {
        // The counter's own name is the path after its last '.'
        // (npos + 1 == 0 when it sits at the top).
        if (path.compare(path.rfind('.') + 1, std::string::npos, leaf) == 0)
            total += ctr.value();
    });
    return total;
}

std::map<std::string, std::uint64_t>
StatGroup::flatten() const
{
    std::map<std::string, std::uint64_t> out;
    visitCounters([&](const std::string &path, const Counter &ctr) {
        out.emplace(path, ctr.value());
    });
    return out;
}

void
StatGroup::visitCounters(
    const std::function<void(const std::string &path,
                             const Counter &ctr)> &fn) const
{
    std::string path;
    visitInto(path, fn);
}

void
StatGroup::visitInto(
    std::string &path,
    const std::function<void(const std::string &path,
                             const Counter &ctr)> &fn) const
{
    // Counters first, then children, both in the maps' lexicographic
    // name order, so the enumeration is deterministic and independent
    // of registration order. One path buffer grows and shrinks along
    // the walk.
    const std::size_t prefix = path.size();
    for (const auto &[name, ctr] : counters_) {
        path.append(name);
        fn(path, *ctr);
        path.resize(prefix);
    }
    for (const auto &[name, child] : children_) {
        path.append(name).push_back('.');
        child->visitInto(path, fn);
        path.resize(prefix);
    }
}

} // namespace canon
