/**
 * @file
 * Per-component time series: the sampled value of one counter over
 * simulated time. The sampler produces a SeriesSet per fabric run;
 * the engine report layer concatenates them (scenario, pass) into the
 * one long-form CSV the summarizer scripts consume.
 *
 * Values are the *cumulative* counter readings at each sample cycle,
 * never deltas: cumulative series are trivially order-independent
 * (byte-identical across worker counts and tick-order shuffles) and
 * the consumer can difference adjacent points to recover rates.
 */

#ifndef CANON_OBS_SERIES_HH
#define CANON_OBS_SERIES_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace canon
{
namespace obs
{

/** One sample: the cumulative counter value at a simulated cycle. */
struct SeriesPoint
{
    std::uint64_t cycle = 0;
    std::uint64_t value = 0;

    friend bool
    operator==(const SeriesPoint &a, const SeriesPoint &b)
    {
        return a.cycle == b.cycle && a.value == b.value;
    }
};

/** One (metric, component) series over one fabric run. */
struct Series
{
    std::string metric;    //!< counter leaf name, e.g. "tagCompares"
    std::string component; //!< "fabric" (whole tree) or "orch3", ...
    std::vector<SeriesPoint> points;

    friend bool
    operator==(const Series &a, const Series &b)
    {
        return a.metric == b.metric && a.component == b.component &&
               a.points == b.points;
    }
};

/** Every series of one fabric run, ordered by (metric, component). */
struct SeriesSet
{
    std::vector<Series> series;

    friend bool
    operator==(const SeriesSet &a, const SeriesSet &b)
    {
        return a.series == b.series;
    }
};

/** The long-form CSV header: scenario,pass,metric,component,cycle,value. */
extern const char *const kSeriesCsvHeader;

/**
 * Append @p set as long-form CSV rows labelled with @p scenario (the
 * global expansion index) and @p pass (the fabric-run ordinal within
 * the scenario). Emission order is the set's (metric, component)
 * order, points in cycle order -- fully deterministic.
 */
void writeSeriesCsv(std::ostream &os, std::size_t scenario,
                    std::size_t pass, const SeriesSet &set);

} // namespace obs
} // namespace canon

#endif // CANON_OBS_SERIES_HH
