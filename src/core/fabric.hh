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
 *
 * Statistics are the components' own Counter members.
 * forEachCounter() enumerates them as (group, leaf, counter) on
 * demand, and profile(), flatStats(), sumCounter() and the cycle
 * sampler read that enumeration; nothing is registered.
 *
 * A caller that wants only the cycles and the counters calls
 * runForProfile() instead of run(). When the fabric can, it then runs
 * *folded*: only column 0 ticks, since PE column c repeats column 0's
 * pops, pushes, counters and panics exactly 3c cycles later (the
 * orchestrators never read data values, and a streaming PE never
 * stalls). The run ends when the full one would, and the enumeration
 * then reports each row's column-0 counters under every column's
 * name, so cycles, profile and stats are identical to run()'s; only
 * result() is gone.
 */

#ifndef CANON_CORE_FABRIC_HH
#define CANON_CORE_FABRIC_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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

    /**
     * run() for a caller that never reads result(): folded (see the
     * file comment) when the fabric has not stepped yet, is in
     * streaming mode, unobserved (no obs probe), collects at the south
     * edge with no north feed, has two or more columns, and runs a
     * program that cannot write data memory (a data-memory write
     * checks its value, which only column 0 computes). Otherwise it is
     * run(). After a folded run result() is fatal.
     */
    Cycle runForProfile(Cycle max_cycles = 500'000'000);

    /** Advance exactly one cycle: the compute, then the commit phase. */
    void step();

    Cycle cycles() const { return now_; }

    /** The assembled output matrix; fatal after a folded run. */
    const WordMatrix &result() const;

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

    /**
     * Visit every counter as (group, leaf, counter), one group.leaf
     * path each: orchestrator r's, its tag buffer's included, in
     * group "orchR", and PE (r, c)'s, its memories' and router's
     * included, in group "peR_C". The names are valid during the
     * call; the visiting order is not part of the contract. After a
     * folded run PE (r, c) reports PE (r, 0)'s counters, which it
     * repeats, while its own stay zero.
     */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        for (const auto &o : orchs_)
            o->forEachCounter(
                [&](std::string_view leaf, const Counter &ctr) {
                    fn(std::string_view(o->name()), leaf, ctr);
                });
        for (const auto &p : pes_) {
            const Pe &src = folded_ ? *pes_[peIndex(p->row(), 0)] : *p;
            src.forEachCounter(
                [&](std::string_view leaf, const Counter &ctr) {
                    fn(std::string_view(p->name()), leaf, ctr);
                });
        }
    }

    /** Every counter by its "group.leaf" path: the stats JSON's flat
     *  view. */
    std::map<std::string, std::uint64_t> flatStats() const;

    /** The sum of every counter named @p leaf, fabric-wide. */
    std::uint64_t sumCounter(std::string_view leaf) const;

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
        ColumnZero, //!< the compute phase's Pes group, folded
    };

    /** One row of a folded run: its column-0 PE, the row's pipeline,
     *  and the channel from column 0 into column 1. */
    struct FoldedRow
    {
        Pe *pe;
        const InstPipeline *pipe;
        DataChannel *east;
    };

    int peIndex(int r, int c) const { return r * cfg_.cols + c; }

    /** The vertical channels lead dataChans_; this many of them. */
    int numVert() const { return (cfg_.rows + 1) * cfg_.cols; }

    /** Channel from row r-1 into row r, column c (r=0: north edge,
     *  r=rows: south edge). */
    DataChannel &
    vert(int r, int c)
    {
        return dataChans_[static_cast<std::size_t>(r * cfg_.cols + c)];
    }

    /** Channel into PE (r, c) from the west (c=0: west edge,
     *  c=cols: east edge). */
    DataChannel &
    horiz(int r, int c)
    {
        return dataChans_[static_cast<std::size_t>(
            numVert() + r * (cfg_.cols + 1) + c)];
    }

    bool channelsDrained() const;

    Cycle runLoop(Cycle max_cycles, bool may_fold);

    /** Whether this fabric may run folded (runForProfile()). */
    bool foldable() const;

    /** Switch the loaded fabric to folded ticking. */
    void fold();

    /** The compute phase of a folded run's PEs: column 0, and column
     *  1's pops of what column 0 sends east. */
    void tickColumnZero();

    /** A cycle accountant over every component (--cycle-accounting). */
    std::unique_ptr<obs::CycleAccountant> makeAccountant() const;

    CanonConfig cfg_;
    Cycle now_ = 0;

    std::vector<std::unique_ptr<Pe>> pes_;
    std::vector<std::unique_ptr<Orchestrator>> orchs_;
    std::vector<std::unique_ptr<InstPipeline>> pipes_;

    /**
     * Every data channel, each with its ring inline: the vertical
     * channels row by row, then the horizontal ones (see vert() and
     * horiz()). Reserved to its final size before the first channel
     * is built and never resized, since channels enlist their own
     * address on dirtyData_.
     */
    std::vector<DataChannel> dataChans_;

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
    // group with more than one.
    std::vector<Group> computeGroups_;
    std::vector<Group> commitGroups_;
    std::vector<Orchestrator *> orchTicks_;
    std::vector<Pe *> peTicks_;
    std::vector<InstPipeline *> pipeTicks_;
    std::vector<MsgChannel *> msgTicks_;

    /**
     * The data channels with a staged push or pop this cycle, in the
     * order they staged it: every data channel enlists itself here
     * (ChannelFifo::commitVia), and the DataChannels group commits
     * only these.
     */
    std::vector<DataChannel *> dirtyData_;

    /**
     * A folded run's rows, in the order the PEs group ticks column 0.
     * Empty unless folded.
     */
    std::vector<FoldedRow> foldRows_;

    /**
     * The first cycle a folded run may end: 3(cols - 1) + 1 cycles
     * after the last one at which column 0 was busy -- a PE not idle,
     * a vector at its south edge, or a vector sent east the cycle
     * before -- so that the last column is quiet too. 0 when not
     * folded.
     */
    Cycle quietFrom_ = 0;

    std::uint64_t shuffleSeed_ = 0;
    bool loaded_ = false;
    bool spatial_ = false;
    bool folded_ = false;
};

} // namespace canon

#endif // CANON_CORE_FABRIC_HH
