/**
 * @file
 * Cycle-resolved observation of a running fabric: the CycleProbe
 * phase group and the counter sampler it drives.
 *
 * CycleProbe is the one obs group a fabric ticks. It is commit-only,
 * ticked after every other commit group, and it owns the single
 * cadence and final-capture rule for both cycle-resolved instruments:
 * the CycleSampler below, which sums a fixed probe set of a fabric's
 * counters, and the CycleAccountant (accounting.hh), which classifies
 * every component-cycle.
 *
 * Zero-cost-when-off is structural, not branchy: CanonFabric::run()
 * constructs a probe and appends its commit group only when the
 * observing collector asks for sampling or cycle accounting, so an
 * unobserved cycle loop ticks exactly the groups it would have ticked
 * without this file.
 * A sample is a handful of pointer reads: the fabric hands the
 * sampler every counter it enumerates (CanonFabric::forEachCounter)
 * before it first ticks, and each probe keeps direct Counter
 * pointers, which is safe because the counters are members of the
 * fabric's components, which never move.
 *
 * Capturing in the commit phase makes every series deterministic:
 * every counter bumps in the compute phase, so by any commit pass the
 * values for that cycle are final regardless of the order groups
 * tick in.
 */

#ifndef CANON_OBS_SAMPLER_HH
#define CANON_OBS_SAMPLER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/accounting.hh"
#include "obs/series.hh"

namespace canon
{

class Counter;

namespace obs
{

class CycleSampler final
{
  public:
    /**
     * Add @p ctr, counter @p leaf of group @p group, to the probes
     * it feeds: each tracked metric is summed fabric-wide into
     * component "fabric", and the orchestrator residency/matching
     * metrics are additionally split per "orch*" group. A counter no
     * probe tracks is ignored. Track every counter before the first
     * capture().
     */
    void track(std::string_view group, std::string_view leaf,
               const Counter &ctr);

    /** Record every probe's current value at @p cycle. */
    void capture(std::uint64_t cycle);

    /** Move the accumulated series out; capturing may continue. */
    SeriesSet take();

  private:
    struct Probe
    {
        std::vector<const Counter *> sources;
        std::vector<SeriesPoint> points;
    };

    /** Keyed by (metric, component), which fixes the series order. */
    std::map<std::pair<std::string, std::string>, Probe> probes_;
};

class CycleProbe final
{
  public:
    /**
     * Drive whichever instruments are non-null (at least one). Every
     * @p every cycles both capture a series point and the accountant
     * its histograms. A cadence of 0 means no series (and no
     * sampler): accounting histograms then capture every cycle.
     */
    CycleProbe(std::uint64_t every,
               std::unique_ptr<CycleSampler> sampler,
               std::unique_ptr<CycleAccountant> accountant);

    void
    tickCommit()
    {
        if (accountant_)
            accountant_->observe();
        ++tick_;
        if (every_ == 0) {
            accountant_->captureHistograms();
        } else if (tick_ % every_ == 0) {
            if (accountant_)
                accountant_->captureHistograms();
            captureSeries();
        }
    }

    /**
     * Record the final partial-interval series point (no-op when the
     * last cycle already landed on the cadence, or without a
     * cadence). Call after the run drains.
     */
    void captureFinal();

    /** Cycles observed since the probe joined (the series time axis). */
    std::uint64_t tick() const { return tick_; }

    /** Move the series out: sampler metrics, then acct.* rollups. */
    SeriesSet takeSeries();

    /** Snapshot the cumulative accounting (empty without one). */
    AccountingSet takeAccounting() const;

  private:
    void captureSeries();

    std::uint64_t every_;
    std::uint64_t tick_ = 0;
    std::uint64_t lastCaptured_ = 0;
    bool captured_ = false;
    std::unique_ptr<CycleSampler> sampler_;
    std::unique_ptr<CycleAccountant> accountant_;
};

} // namespace obs
} // namespace canon

#endif // CANON_OBS_SAMPLER_HH
