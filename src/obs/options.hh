/**
 * @file
 * The observability knobs every canon entry point shares. This header
 * is a leaf on purpose: engine::CommonFlags embeds an ObsOptions, so
 * it must not pull in the stats framework, the sampler, or anything
 * above the common layer.
 *
 * All knobs are instrumentation-only: they never change what is
 * simulated, what is cached (they are not part of the scenario cache
 * key), or what the stats tables render. With every knob off, the
 * instrumented paths reduce to a single branch per scenario/run -- the
 * zero-cost-when-off guarantee the perf-trajectory gate enforces.
 */

#ifndef CANON_OBS_OPTIONS_HH
#define CANON_OBS_OPTIONS_HH

#include <cstdint>
#include <string>

namespace canon
{
namespace obs
{

struct ObsOptions
{
    /**
     * Cycle-resolved sampling cadence: capture the tracked StatGroup
     * counters every N simulated cycles (plus one final sample at run
     * end). 0 disables the sampler entirely; with cycle accounting
     * also off the fabric ticks no probe group, so disabled
     * observation costs nothing per cycle.
     */
    std::uint64_t sampleEvery = 0;

    /** Sampled time-series CSV path (requires sampleEvery > 0). */
    std::string seriesOut;

    /** Chrome trace-event (about://tracing / Perfetto) JSON path. */
    std::string traceOut;

    /** Machine-readable per-scenario stats dump path. */
    std::string statsJsonOut;

    /**
     * Per-component cycle accounting (--cycle-accounting): classify
     * every ticked cycle of every Pe/pipeline/orchestrator into the
     * stall-cause taxonomy and record occupancy histograms. Renders a
     * breakdown table and adds accounting sections to --stats-json /
     * series metrics and trace counter tracks when those outputs are
     * also requested. Off: no accountant is constructed.
     */
    bool cycleAccounting = false;

    /**
     * Host-side wall-clock phase timers (--host-timers): per-scenario
     * queue-wait / cache-probe / sim / encode / store durations,
     * reported through --stats-json. Wall-clock readings are
     * non-deterministic, so this is the one obs output excluded from
     * the byte-identity contract.
     */
    bool hostTimers = false;

    bool sampling() const { return sampleEvery > 0; }

    /** The flat per-run stats view is only captured when dumped. */
    bool wantFlatStats() const { return !statsJsonOut.empty(); }

    /** Any observability output requested at all. */
    bool
    enabled() const
    {
        return sampleEvery > 0 || !seriesOut.empty() ||
               !traceOut.empty() || !statsJsonOut.empty() ||
               cycleAccounting || hostTimers;
    }
};

} // namespace obs
} // namespace canon

#endif // CANON_OBS_OPTIONS_HH
