#include "baselines/dfg.hh"

namespace canon
{

std::vector<int>
Dfg::topoOrder() const
{
    std::vector<int> in_deg(static_cast<std::size_t>(size()), 0);
    for (int v = 0; v < size(); ++v)
        in_deg[static_cast<std::size_t>(v)] =
            static_cast<int>(preds(v).size());

    // Successor lists from the predecessor representation.
    std::vector<std::vector<int>> succs(
        static_cast<std::size_t>(size()));
    for (int v = 0; v < size(); ++v)
        for (int p : preds(v))
            succs[static_cast<std::size_t>(p)].push_back(v);

    std::vector<int> ready;
    for (int v = 0; v < size(); ++v)
        if (in_deg[static_cast<std::size_t>(v)] == 0)
            ready.push_back(v);

    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(size()));
    while (!ready.empty()) {
        const int v = ready.back();
        ready.pop_back();
        order.push_back(v);
        for (int s : succs[static_cast<std::size_t>(v)])
            if (--in_deg[static_cast<std::size_t>(s)] == 0)
                ready.push_back(s);
    }
    panicIf(static_cast<int>(order.size()) != size(), "Dfg ", name_,
            ": cycle detected (use recurrence MII for loop-carried "
            "dependences)");
    return order;
}

} // namespace canon
