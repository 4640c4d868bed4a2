/**
 * @file
 * The per-scenario observation collector and its thread-local hookup.
 *
 * The instrumented layers must not know about each other: CanonFabric
 * cannot see runner jobs, the cache cannot see fabrics, and none of
 * them may grow observability parameters through every call signature.
 * Instead the job runner installs a Collector for the current thread
 * (ScopedCollector), and each layer that has something to report asks
 * obs::current() -- a single thread-local read that returns nullptr
 * whenever observability is off, which is the entire disabled-path
 * cost.
 *
 * A Collector belongs to exactly one scenario execution on one worker
 * thread; finish() freezes it into an immutable ScenarioObs that rides
 * the ScenarioResult back to the engine's report layer. Everything
 * recorded is a function of simulated behaviour only, so scenario
 * observations are byte-stable across --jobs and tick-order shuffle
 * seeds.
 */

#ifndef CANON_OBS_COLLECTOR_HH
#define CANON_OBS_COLLECTOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/accounting.hh"
#include "obs/host.hh"
#include "obs/options.hh"
#include "obs/series.hh"

namespace canon
{

class StatGroup;

namespace obs
{

/** Result-cache interactions, in the order the runner performed them. */
enum class CacheEventKind
{
    Probe, //!< lookup issued
    Hit,   //!< decodable entry returned
    Miss,  //!< no usable entry; simulation will execute
    Store, //!< freshly computed result persisted
};

/**
 * One fabric execution inside a scenario: one per simulated layer
 * (a fabric runs one kernel, so no record includes another's).
 */
struct FabricRunObs
{
    std::uint64_t cycles = 0;
    /** Sampled series (empty unless --sample-every is active). */
    SeriesSet series;
    /** Flat stats view at run end, captured only for --stats-json. */
    std::map<std::string, std::uint64_t> flat;
    /**
     * Per-component cycle accounting + occupancy histograms (empty
     * unless --cycle-accounting is active).
     */
    AccountingSet accounting;
};

/** Everything observed while executing one scenario. */
struct ScenarioObs
{
    ObsOptions options;
    std::vector<FabricRunObs> runs;
    std::vector<CacheEventKind> cacheEvents;
    /** Host wall-clock phase durations (--host-timers only). */
    HostPhaseTimes host;
};

class Collector
{
  public:
    explicit Collector(const ObsOptions &opt) { obs_.options = opt; }

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    const ObsOptions &options() const { return obs_.options; }
    bool sampling() const { return obs_.options.sampling(); }
    bool accounting() const { return obs_.options.cycleAccounting; }

    /** Record one finished fabric run (called by CanonFabric::run). */
    void recordFabricRun(const StatGroup &stats, std::uint64_t cycles,
                         SeriesSet series,
                         AccountingSet accounting = {});

    void recordCacheEvent(CacheEventKind kind)
    {
        obs_.cacheEvents.push_back(kind);
    }

    /** Attach host phase timings (called by the scenario runner). */
    void recordHostTimes(const HostPhaseTimes &t) { obs_.host = t; }

    /** Freeze the observations; the collector is spent afterwards. */
    std::shared_ptr<const ScenarioObs> finish();

  private:
    ScenarioObs obs_;
};

/**
 * The collector observing the current thread, or nullptr when
 * observability is off. Instrumented layers read this exactly once per
 * reporting site.
 */
Collector *current();

/** Installs @p c as current() for the enclosing scope (re-entrant). */
class ScopedCollector
{
  public:
    explicit ScopedCollector(Collector &c);
    ~ScopedCollector();

    ScopedCollector(const ScopedCollector &) = delete;
    ScopedCollector &operator=(const ScopedCollector &) = delete;

  private:
    Collector *prev_;
};

} // namespace obs
} // namespace canon

#endif // CANON_OBS_COLLECTOR_HH
