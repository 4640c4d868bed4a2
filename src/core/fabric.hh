/**
 * @file
 * The Canon fabric (Figure 1): the PE array, one orchestrator per row,
 * the instruction-dedicated NoC, the circuit-switched data NoC, the
 * inter-orchestrator message channels, and the edge movers/collectors.
 *
 * Usage:
 *     CanonFabric fabric(CanonConfig::paper());
 *     fabric.load(mapSpmm(a, b, fabric.config()));
 *     fabric.run();
 *     WordMatrix c = fabric.result();
 *
 * The fabric also supports the spatial execution mode of Appendix D:
 * configureSpatial() streams per-column instructions through the
 * instruction NoC (3 cycles per column), freezes the pipelines, and
 * every PE then re-executes its latched instruction each cycle while
 * data is pushed/popped at the west/east edges.
 *
 * The fabric is its own cycle loop. step() runs two phases over phase
 * groups, one group per component kind. In the compute phase every
 * component reads committed state and stages its effects; in the
 * commit phase channels, pipelines and PEs publish them. So the order
 * groups and their members tick in within a phase cannot be observed,
 * which the shuffle seed proves.
 */

#ifndef CANON_CORE_FABRIC_HH
#define CANON_CORE_FABRIC_HH

#include <memory>
#include <optional>
#include <vector>

#include "core/collectors.hh"
#include "core/config.hh"
#include "core/kernel_mapping.hh"
#include "orch/orchestrator.hh"
#include "pe/pe.hh"
#include "power/profile.hh"

namespace canon
{

namespace obs
{
class CycleAccountant;
class CycleProbe;
}

class CanonFabric
{
  public:
    /**
     * A nonzero @p shuffle_seed permutes the members of every phase
     * group and the groups within each phase (0 = construction
     * order). Results are independent of tick order -- the
     * determinism tests construct fabrics under several seeds and
     * require byte-identical outputs.
     */
    explicit CanonFabric(const CanonConfig &cfg,
                         std::uint64_t shuffle_seed = 0);

    /** Out of line: probe_ is incomplete here. */
    ~CanonFabric();

    const CanonConfig &config() const { return cfg_; }

    /** Program the fabric for one kernel execution. */
    void load(KernelMapping mapping);

    /** True when execution has fully drained. */
    bool done() const;

    /**
     * Run the loaded kernel to completion; returns cycles taken.
     * Panics after @p max_cycles as a watchdog, so a mis-programmed
     * FSM that never finishes fails loudly instead of hanging.
     */
    Cycle run(Cycle max_cycles = 500'000'000);

    /** Advance exactly one cycle: the compute, then the commit phase. */
    void step();

    Cycle cycles() const { return now_; }

    /** The assembled output matrix. */
    const WordMatrix &result() const { return out_; }

    // ---- spatial mode (Appendix D) -----------------------------------
    /**
     * Configure PE (r, c) with insts[r][c] via the instruction NoC,
     * then freeze. Returns the configuration cycle count (~3 cycles
     * per column, Figure 22).
     */
    Cycle configureSpatial(
        const std::vector<std::vector<Instruction>> &insts);

    /** Push a vector into row @p r's west edge (spatial mode I/O). */
    void pushWest(int r, const Vec4 &v);

    /** Pop a vector from row @p r's east edge, if present. */
    std::optional<Vec4> popEast(int r);

    // ---- introspection ------------------------------------------------
    Pe &pe(int r, int c);
    Orchestrator &orch(int r);
    const Orchestrator &orch(int r) const;
    StatGroup &stats() { return stats_; }

    /** Group passes per cycle (zero-cost-when-off tests). */
    std::size_t phaseGroups() const
    {
        return computeGroups_.size() + commitGroups_.size();
    }

    /** Export the run as an architecture-independent profile. */
    ExecutionProfile profile(const std::string &workload) const;

  private:
    /**
     * The phase groups of step(). The constructor enlists the first
     * five, load() the edge components its mapping needs, and run()
     * the probe, last of all, when observing.
     */
    enum class Group : std::uint8_t
    {
        Orchestrators,
        Pes,
        Pipelines,
        MsgChannels,
        DataChannels,
        SouthCollector,
        EastCollector,
        MsgSink,
        EdgeSink,
        NorthFeeder,
        Probe,
    };

    int peIndex(int r, int c) const { return r * cfg_.cols + c; }
    bool channelsDrained() const;

    /** A cycle accountant over every component (--cycle-accounting). */
    std::unique_ptr<obs::CycleAccountant> makeAccountant() const;

    CanonConfig cfg_;
    StatGroup stats_;
    Cycle now_ = 0;

    std::vector<std::unique_ptr<Pe>> pes_;
    std::vector<std::unique_ptr<Orchestrator>> orchs_;
    std::vector<std::unique_ptr<InstPipeline>> pipes_;

    // vert_[r][c]: channel from row r-1 into row r (r=0: north edge,
    // r=rows: south edge). horiz_[r][c]: channel into PE (r, c) from
    // the west (c=0: west edge, c=cols: east edge).
    std::vector<std::vector<std::unique_ptr<DataChannel>>> vert_;
    std::vector<std::vector<std::unique_ptr<DataChannel>>> horiz_;

    // msg_[r]: messages from orchestrator r-1 to r; msg_[0] is the
    // north-edge (feeder) channel, msg_[rows] feeds the collector.
    std::vector<std::unique_ptr<MsgChannel>> msg_;

    std::vector<std::deque<OutRec>> outRecs_;

    KernelMapping mapping_;
    WordMatrix out_;

    std::unique_ptr<NorthFeeder> feeder_;
    std::unique_ptr<SouthCollector> southCollector_;
    std::unique_ptr<EastCollector> eastCollector_;
    std::unique_ptr<EdgeSink> sink_;
    std::unique_ptr<MsgSink> msgSink_;

    /**
     * The obs probe (obs/sampler.hh): the stats sampler and/or the
     * cycle accountant, constructed in run() only when the current
     * thread is observing with a sampling cadence or
     * --cycle-accounting. Null otherwise, and then no probe group
     * ticks.
     */
    std::unique_ptr<obs::CycleProbe> probe_;

    // Tick order: the groups of each phase, and the members of every
    // group with more than one (every data channel in one flat list).
    std::vector<Group> computeGroups_;
    std::vector<Group> commitGroups_;
    std::vector<Orchestrator *> orchTicks_;
    std::vector<Pe *> peTicks_;
    std::vector<InstPipeline *> pipeTicks_;
    std::vector<MsgChannel *> msgTicks_;
    std::vector<DataChannel *> dataTicks_;

    std::uint64_t shuffleSeed_ = 0;
    bool loaded_ = false;
    bool spatial_ = false;
};

} // namespace canon

#endif // CANON_CORE_FABRIC_HH
