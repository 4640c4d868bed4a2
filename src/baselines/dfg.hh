/**
 * @file
 * Dataflow-graph IR for the CGRA baseline (and for Canon's spatial
 * mode experiments). A Dfg is the loop-body of a kernel: operation
 * nodes with latencies and data edges. PolyBench kernel descriptors
 * (src/workloads) carry one of these; the modulo-scheduling mapper
 * (cgra_mapper.hh) places it on the mesh.
 */

#ifndef CANON_BASELINES_DFG_HH
#define CANON_BASELINES_DFG_HH

#include <string>
#include <vector>

#include "common/logging.hh"

namespace canon
{

enum class DfgOp : std::uint8_t
{
    Load,
    Store,
    Mul,
    Add,
    Sub,
    Mac,
    Cmp,
    Select,
    Shift,
};

struct DfgNode
{
    int id;
    std::string name;
    DfgOp op;
    int latency; //!< cycles through the PE's functional unit
};

class Dfg
{
  public:
    explicit Dfg(std::string name = "dfg") : name_(std::move(name)) {}

    /** Add a node; returns its id. */
    int
    addNode(const std::string &name, DfgOp op, int latency = 1)
    {
        nodes_.push_back(
            {static_cast<int>(nodes_.size()), name, op, latency});
        preds_.emplace_back();
        return nodes_.back().id;
    }

    /** Data edge: @p to consumes @p from's value. */
    void
    addEdge(int from, int to)
    {
        panicIf(from < 0 || to < 0 || from >= size() || to >= size(),
                "Dfg ", name_, ": bad edge ", from, "->", to);
        panicIf(from == to, "Dfg ", name_, ": self edge on ", from);
        preds_[static_cast<std::size_t>(to)].push_back(from);
    }

    int size() const { return static_cast<int>(nodes_.size()); }
    const std::string &name() const { return name_; }
    const DfgNode &node(int id) const
    {
        return nodes_[static_cast<std::size_t>(id)];
    }
    const std::vector<int> &preds(int id) const
    {
        return preds_[static_cast<std::size_t>(id)];
    }

    /** Topological order; panics on a cycle (loop-carried deps are
     *  expressed as a recurrence MII, not as graph edges). */
    std::vector<int> topoOrder() const;

  private:
    std::string name_;
    std::vector<DfgNode> nodes_;
    std::vector<std::vector<int>> preds_;
};

} // namespace canon

#endif // CANON_BASELINES_DFG_HH
