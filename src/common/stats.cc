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

Counter &
StatGroup::counter(const std::string &name)
{
    auto it = counters_.find(name);
    if (it != counters_.end())
        return it->second;
    checkStatName(*this, name, "counter");
    panicIf(children_.count(name) != 0, "StatGroup '", name_,
            "': counter '", name,
            "' collides with a child group of the same name");
    return counters_[name];
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

StatGroup &
StatGroup::childAt(const std::string &name) const
{
    auto it = children_.find(name);
    panicIf(it == children_.end(), "StatGroup '", name_,
            "': no child '", name, "'");
    return *it->second;
}

std::uint64_t
StatGroup::sumCounter(const std::string &leaf) const
{
    std::uint64_t total = 0;
    auto it = counters_.find(leaf);
    if (it != counters_.end())
        total += it->second.value();
    for (const auto &[_, child] : children_)
        total += child->sumCounter(leaf);
    return total;
}

std::map<std::string, std::uint64_t>
StatGroup::flatten() const
{
    std::map<std::string, std::uint64_t> out;
    flattenInto("", out);
    return out;
}

void
StatGroup::flattenInto(const std::string &prefix,
                       std::map<std::string, std::uint64_t> &out) const
{
    for (const auto &[name, ctr] : counters_)
        out[prefix + name] = ctr.value();
    for (const auto &[name, child] : children_)
        child->flattenInto(prefix + name + ".", out);
}

void
StatGroup::visitCounters(
    const std::function<void(const std::string &path,
                             const Counter &ctr)> &fn) const
{
    // Mirrors flattenInto: counters first, then children, both in
    // the maps' lexicographic name order, so the enumeration is
    // deterministic and independent of registration order.
    for (const auto &[name, ctr] : counters_)
        fn(name, ctr);
    for (const auto &[name, child] : children_)
        child->visitCounters([&](const std::string &path,
                                 const Counter &ctr) {
            fn(name + "." + path, ctr);
        });
}

} // namespace canon
