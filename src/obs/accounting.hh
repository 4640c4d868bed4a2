/**
 * @file
 * Per-component cycle accounting: every ticked cycle of every
 * Pe / InstPipeline / Orchestrator classified into an exhaustive,
 * mutually exclusive stall-cause taxonomy, plus occupancy histograms
 * of the channels and tag buffers.
 *
 * The hard invariant: for every component, the six category counts
 * sum *exactly* to the cycles the accountant observed -- enforced by
 * construction (each commit pass assigns exactly one category per
 * component) and asserted by tests and the CI obs gate.
 *
 * The accountant is driven by the fabric's CycleProbe (sampler.hh),
 * its last commit group, which CanonFabric::run() adds only
 * when the observing collector asked for cycle accounting or sampling
 * (--cycle-accounting, --sample-every); the probe owns the cadence.
 * Disabled accounting is structural: no accountant exists, and with
 * sampling also off no probe either. Classification reads post-commit
 * component state and compute-phase counter deltas, both of which are
 * final by any commit pass, so the recorded categories -- and every
 * artifact derived from them -- are byte-identical across --jobs
 * values and tick-order shuffle seeds.
 *
 * Counts accumulate for the life of the fabric (take() snapshots
 * without resetting), matching the flat-stats semantics: for
 * workloads that reuse one fabric across passes, later runs include
 * earlier runs' cycles. The invariant is against AccountingSet::cycles
 * (the probe's observed-cycle count), which equals the run's elapsed
 * cycles for the common one-run-per-fabric scenarios.
 */

#ifndef CANON_OBS_ACCOUNTING_HH
#define CANON_OBS_ACCOUNTING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/hist.hh"
#include "obs/series.hh"

namespace canon
{

class Pe;
class Orchestrator;
class InstPipeline;
class MsgChannel;
struct Vec4;
template <typename T> class ChannelFifo;

namespace obs
{

/**
 * The per-cycle classification. Exhaustive and mutually exclusive:
 * every observed component-cycle lands in exactly one category.
 */
enum class CycleCat : int
{
    Compute = 0,                 //!< useful work issued/executed
    StallUpstreamEmpty,          //!< waiting on inputs (starved)
    StallDownstreamBackpressure, //!< output channel full (stalled)
    TagSearch,                   //!< associative tag-buffer probing
    Drain,                       //!< finishing in-flight work after
                                 //!< the row's orchestrator is done
    Idle,                        //!< nothing to do
};

inline constexpr int kCycleCatCount = 6;

/** Stable snake_case name, used in stats JSON and series metrics. */
const char *cycleCatName(int cat);

/** One component's category totals. */
struct ComponentAccount
{
    std::string component;
    std::array<std::uint64_t, kCycleCatCount> cycles{};

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t c : cycles)
            t += c;
        return t;
    }

    friend bool
    operator==(const ComponentAccount &a, const ComponentAccount &b)
    {
        return a.component == b.component && a.cycles == b.cycles;
    }
};

/** A frozen accounting snapshot of one fabric (one run record). */
struct AccountingSet
{
    /** Cycles observed (== every component's total). */
    std::uint64_t cycles = 0;
    /**
     * Fixed deterministic order: orchestrators (orch0...), PEs in
     * row-major order (pe0_0...), instruction pipelines (pipe0...).
     */
    std::vector<ComponentAccount> components;
    /** Occupancy / depth / search-length distributions. */
    std::vector<HistogramOut> histograms;

    bool empty() const { return components.empty(); }

    friend bool
    operator==(const AccountingSet &a, const AccountingSet &b)
    {
        return a.cycles == b.cycles && a.components == b.components &&
               a.histograms == b.histograms;
    }
};

class CycleAccountant final
{
  public:
    using DataChan = ChannelFifo<Vec4>;

    /**
     * Observe the given components. Vectors index components in the
     * AccountingSet order above; a PE's row() (and a pipeline's index,
     * one pipeline per row) selects the orchestrator whose done()
     * drives the drain classification.
     */
    CycleAccountant(std::vector<const Orchestrator *> orchs,
                    std::vector<const Pe *> pes,
                    std::vector<const InstPipeline *> pipes,
                    std::vector<const DataChan *> vert,
                    std::vector<const DataChan *> horiz,
                    std::vector<const MsgChannel *> msgs);

    /** Classify this cycle: one category per component. */
    void observe();

    /** Record one occupancy/depth sample into the histograms. */
    void captureHistograms();

    /**
     * Record one point of the cumulative rollup series ("acct.*",
     * component "fabric") at @p cycle. The probe captures these on
     * exactly the sampler's schedule, so the trace writer's
     * equal-points-per-series assumption holds.
     */
    void captureSeries(std::uint64_t cycle);

    /**
     * Snapshot the cumulative accounts over @p cycles observed cycles
     * (the accountant keeps going).
     */
    AccountingSet take(std::uint64_t cycles) const;

    /** Move the accumulated rollup series out. */
    SeriesSet takeSeries();

  private:
    void classify(std::size_t comp, CycleCat cat);

    std::vector<const Orchestrator *> orchs_;
    std::vector<const Pe *> pes_;
    std::vector<const InstPipeline *> pipes_;
    std::vector<const DataChan *> vert_;
    std::vector<const DataChan *> horiz_;
    std::vector<const MsgChannel *> msgs_;

    /** accounts_[component][category], AccountingSet order. */
    std::vector<std::array<std::uint64_t, kCycleCatCount>> accounts_;

    // Previous-cycle counter values (per-cycle deltas drive the
    // classification and the search-length histogram).
    std::vector<std::uint64_t> prevOrchStall_;
    std::vector<std::uint64_t> prevOrchInst_;
    std::vector<std::uint64_t> prevOrchSearches_;
    std::vector<std::uint64_t> prevOrchCompares_;
    std::vector<std::uint64_t> prevPeBusy_;

    // Histograms: channel-class occupancy + per-orch distributions.
    Histogram histVert_;
    Histogram histHoriz_;
    Histogram histMsg_;
    std::vector<Histogram> histTagDepth_;  //!< per orchestrator
    std::vector<Histogram> histSearchLen_; //!< per orchestrator

    /** points_[kCycleCatCount] is the "acct.accounted" series. */
    std::vector<std::vector<SeriesPoint>> points_;
};

} // namespace obs
} // namespace canon

#endif // CANON_OBS_ACCOUNTING_HH
