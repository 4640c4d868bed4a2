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
 */

#ifndef CANON_CORE_FABRIC_HH
#define CANON_CORE_FABRIC_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/collectors.hh"
#include "core/config.hh"
#include "core/kernel_mapping.hh"
#include "orch/orchestrator.hh"
#include "pe/pe.hh"
#include "power/profile.hh"
#include "sim/schedule.hh"

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
     * @p reg_shuffle_seed permutes the order components are registered
     * with the simulator (0 = construction order). Results are
     * independent of registration order -- the determinism tests
     * construct fabrics under several seeds and require byte-identical
     * outputs.
     */
    explicit CanonFabric(const CanonConfig &cfg,
                         std::uint64_t reg_shuffle_seed = 0);

    /** Out of line: probe_ is incomplete here. */
    ~CanonFabric();

    const CanonConfig &config() const { return cfg_; }

    /** Program the fabric for one kernel execution. */
    void load(KernelMapping mapping);

    /** True when execution has fully drained. */
    bool done() const;

    /** Run the loaded kernel to completion; returns cycles taken. */
    Cycle run(Cycle max_cycles = 500'000'000);

    /** Advance a single cycle (tests). */
    void step() { sim_.step(); }

    Cycle cycles() const { return sim_.now(); }

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

    /** Live tick-schedule partitions (zero-cost-when-off tests). */
    std::size_t schedulePartitions() const
    {
        return sim_.partitionCount();
    }

    /** Lane-MAC utilization: useful MAC lanes / (lanes * cycles). */
    double utilization() const;

    /** Total data-driven FSM state transitions across orchestrators. */
    std::uint64_t stateTransitions() const;

    /** Total orchestrator stall cycles (load-imbalance backpressure). */
    std::uint64_t stallCycles() const;

    /** Export the run as an architecture-independent profile. */
    ExecutionProfile profile(const std::string &workload) const;

  private:
    int peIndex(int r, int c) const { return r * cfg_.cols + c; }
    bool channelsDrained() const;

    /** A cycle accountant over every component (--cycle-accounting). */
    std::unique_ptr<obs::CycleAccountant> makeAccountant() const;

    /** Run registration thunks, permuted when shuffleSeed_ != 0. */
    void registerAll(std::vector<std::function<void()>> regs,
                     std::uint64_t salt);

    CanonConfig cfg_;
    Simulator sim_;
    StatGroup stats_;

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

    /** Batched commit pass over every data channel (schedule.hh). */
    FifoCommitList<Vec4> dataCommits_;

    /**
     * The obs probe partition (obs/sampler.hh): the stats sampler
     * and/or the cycle accountant, constructed and registered in run()
     * only when the current thread is observing with a sampling
     * cadence or --cycle-accounting. Null otherwise, so a non-observed
     * fabric's schedule is untouched.
     */
    std::unique_ptr<obs::CycleProbe> probe_;

    std::uint64_t shuffleSeed_ = 0;
    bool loaded_ = false;
    bool spatial_ = false;
};

} // namespace canon

#endif // CANON_CORE_FABRIC_HH
