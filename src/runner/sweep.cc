#include "runner/sweep.hh"

namespace canon
{
namespace runner
{

namespace
{

std::vector<std::string>
splitCsv(const std::string &csv)
{
    // Keeps empty segments ("0.5,,0.7", trailing comma) so they hit
    // per-value validation instead of silently shrinking the grid.
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        auto comma = csv.find(',', start);
        out.push_back(csv.substr(start, comma - start));
        if (comma == std::string::npos)
            return out;
        start = comma + 1;
    }
}

} // namespace

std::string
SweepSpec::addAxis(const std::string &key, const std::string &values)
{
    for (const auto &axis : axes_)
        if (axis.key == key)
            return "duplicate sweep axis '" + key + "'";

    // Catch "--sweep --rows=..." before the '--' prefix doubles up
    // in the unknown-option message below.
    if (!key.empty() && key[0] == '-') {
        const auto bare = key.substr(key.find_first_not_of('-'));
        return "sweep axis '" + key + "' should not start with '-'"
               " (write --sweep " + bare + "=...)";
    }

    // Real flags that are nevertheless outside the scenario grammar
    // get a targeted message, not "unknown option".
    if (cli::isNonScenarioFlag(key))
        return "sweep axis '" + key + "' is not sweepable (only"
               " workload, model, shape, and fabric options are)";

    Axis axis;
    axis.key = key;
    axis.values = splitCsv(values);
    if (axis.values.empty())
        return "sweep axis '" + key + "' has no values";

    // Validate every value now, against a scratch copy, with the
    // exact grammar the CLI applies; expansion can then never fail.
    for (const auto &v : axis.values) {
        cli::Options scratch;
        std::string err = cli::applyScenarioOption(scratch, key, v);
        if (!err.empty())
            return "sweep axis '" + key + "': " + err;
    }

    axes_.push_back(std::move(axis));
    return {};
}

std::size_t
SweepSpec::jobCount() const
{
    std::size_t n = 1;
    for (const auto &axis : axes_)
        n *= axis.values.size();
    return n;
}

std::vector<SweepJob>
SweepSpec::expand(const cli::Options &base) const
{
    std::vector<SweepJob> jobs;
    jobs.reserve(jobCount());

    // Odometer over the axis value lists: the last axis is the least
    // significant digit, so it varies fastest.
    std::vector<std::size_t> digit(axes_.size(), 0);
    for (;;) {
        SweepJob job;
        job.index = jobs.size();
        job.options = base;
        for (std::size_t a = 0; a < axes_.size(); ++a) {
            const auto &axis = axes_[a];
            const auto &value = axis.values[digit[a]];
            // Validated by addAxis; cannot fail here.
            cli::applyScenarioOption(job.options, axis.key, value);
            if (!job.point.empty())
                job.point += " ";
            job.point += axis.key + "=" + value;
        }
        jobs.push_back(std::move(job));

        std::size_t a = axes_.size();
        while (a > 0) {
            --a;
            if (++digit[a] < axes_[a].values.size())
                break;
            digit[a] = 0;
            if (a == 0)
                return jobs;
        }
        if (axes_.empty())
            return jobs;
    }
}

} // namespace runner
} // namespace canon
