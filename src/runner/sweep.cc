#include "runner/sweep.hh"

#include <exception>

#include "common/logging.hh"

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

// ---- GridPoint --------------------------------------------------------

const std::string &
GridPoint::value(const std::string &key) const
{
    for (const auto &[k, v] : coords)
        if (k == key)
            return v;
    fatal("grid point '", label, "' has no axis '", key, "'");
}

double
GridPoint::number(const std::string &key) const
{
    const std::string &v = value(key);
    try {
        std::size_t pos = 0;
        const double d = std::stod(v, &pos);
        fatalIf(pos != v.size(), "trailing garbage");
        return d;
    } catch (const std::exception &) {
        fatal("axis '", key, "' value '", v, "' is not a number");
    }
}

int
GridPoint::integer(const std::string &key) const
{
    const std::string &v = value(key);
    try {
        std::size_t pos = 0;
        const int i = std::stoi(v, &pos);
        fatalIf(pos != v.size(), "trailing garbage");
        return i;
    } catch (const std::exception &) {
        fatal("axis '", key, "' value '", v, "' is not an integer");
    }
}

// ---- Grid -------------------------------------------------------------

Grid &
Grid::axis(std::string key, std::vector<std::string> values)
{
    fatalIf(values.empty(), "grid axis '", key, "' has no values");
    fatalIf(hasAxis(key), "duplicate grid axis '", key, "'");
    axes_.push_back({std::move(key), std::move(values)});
    return *this;
}

bool
Grid::hasAxis(const std::string &key) const
{
    for (const auto &axis : axes_)
        if (axis.key == key)
            return true;
    return false;
}

std::size_t
Grid::pointCount() const
{
    std::size_t n = 1;
    for (const auto &axis : axes_)
        n *= axis.values.size();
    return n;
}

std::vector<GridPoint>
Grid::expand() const
{
    std::vector<GridPoint> points;
    points.reserve(pointCount());

    // Odometer over the axis value lists: the last axis is the least
    // significant digit, so it varies fastest.
    std::vector<std::size_t> digit(axes_.size(), 0);
    for (;;) {
        GridPoint p;
        p.index = points.size();
        p.digits = digit;
        for (std::size_t a = 0; a < axes_.size(); ++a) {
            const auto &axis = axes_[a];
            p.coords.emplace_back(axis.key, axis.values[digit[a]]);
            if (!p.label.empty())
                p.label += " ";
            p.label += axis.key + "=" + axis.values[digit[a]];
        }
        points.push_back(std::move(p));

        std::size_t a = axes_.size();
        while (a > 0 && ++digit[a - 1] == axes_[a - 1].values.size())
            digit[--a] = 0;
        if (a == 0)
            return points;
    }
}

// ---- SweepSpec --------------------------------------------------------

std::string
SweepSpec::addAxis(const std::string &key, const std::string &values)
{
    if (grid_.hasAxis(key))
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

    // Validate every value now, against a scratch copy, with the
    // exact grammar the CLI applies; expansion can then never fail.
    // splitCsv never returns an empty list, so the grid accepts it.
    std::vector<std::string> list = splitCsv(values);
    for (const auto &v : list) {
        cli::Options scratch;
        std::string err = cli::applyScenarioOption(scratch, key, v);
        if (!err.empty())
            return "sweep axis '" + key + "': " + err;
    }

    grid_.axis(key, std::move(list));
    return {};
}

std::vector<SweepJob>
SweepSpec::expand(const cli::Options &base) const
{
    std::vector<SweepJob> jobs;
    jobs.reserve(jobCount());
    for (GridPoint &p : grid_.expand()) {
        SweepJob job;
        job.index = p.index;
        job.options = base;
        // Validated by addAxis; cannot fail here.
        for (const auto &[key, value] : p.coords)
            cli::applyScenarioOption(job.options, key, value);
        job.point = std::move(p.label);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace runner
} // namespace canon
