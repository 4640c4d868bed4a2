#include "figure_spec.hh"

#include <exception>
#include <iostream>

#include "bench_util.hh"
#include "cache/key.hh"
#include "cache/payload.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "engine/engine.hh"
#include "engine/obs_report.hh"
#include "runner/shard.hh"

namespace canon
{
namespace bench
{

// ---- FigurePoint ------------------------------------------------------

const std::string &
FigurePoint::value(const std::string &key) const
{
    for (const auto &[k, v] : coords)
        if (k == key)
            return v;
    fatal("figure point '", label, "' has no axis '", key, "'");
}

double
FigurePoint::number(const std::string &key) const
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
FigurePoint::integer(const std::string &key) const
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

// ---- FigureSpec -------------------------------------------------------

FigureSpec &
FigureSpec::axis(std::string key, std::vector<std::string> values)
{
    fatalIf(values.empty(), "figure axis '", key, "' has no values");
    for (const auto &a : axes_)
        fatalIf(a.key == key, "duplicate figure axis '", key, "'");
    axes_.push_back({std::move(key), std::move(values)});
    return *this;
}

std::size_t
FigureSpec::pointCount() const
{
    std::size_t n = 1;
    for (const auto &axis : axes_)
        n *= axis.values.size();
    return n;
}

std::vector<FigurePoint>
FigureSpec::expand() const
{
    std::vector<FigurePoint> points;
    points.reserve(pointCount());

    // Odometer over the axis value lists: the last axis is the least
    // significant digit, so it varies fastest (the SweepSpec order).
    std::vector<std::size_t> digit(axes_.size(), 0);
    for (;;) {
        FigurePoint p;
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
        while (a > 0) {
            --a;
            if (++digit[a] < axes_[a].values.size())
                break;
            digit[a] = 0;
            if (a == 0)
                return points;
        }
        if (axes_.empty())
            return points;
    }
}

// ---- FigureBench ------------------------------------------------------

FigureBench &
FigureBench::add(FigureTable table)
{
    fatalIf(table.header.empty(), "figure table '", table.title,
            "' has no header");
    fatalIf(!table.emit, "figure table '", table.title,
            "' has no emit function");
    tables_.push_back(std::move(table));
    return *this;
}

std::size_t
FigureBench::jobCount() const
{
    std::size_t n = 0;
    for (const auto &t : tables_)
        n += t.grid.pointCount();
    return n;
}

int
FigureBench::run(const BenchOptions &opt, std::ostream &out,
                 std::ostream &err) const
{
    setQuiet(true);

    // The job list: every table's grid, tables in declaration order.
    struct JobRef
    {
        std::size_t table;
        FigurePoint point;
    };
    std::vector<JobRef> all;
    all.reserve(jobCount());
    for (std::size_t t = 0; t < tables_.size(); ++t)
        for (auto &p : tables_[t].grid.expand())
            all.push_back({t, std::move(p)});
    const std::size_t total = all.size();
    const std::vector<JobRef> jobs =
        runner::shardSlice(opt.common.shard, std::move(all));
    if (!opt.common.shard.whole())
        out << name_ << ": " << jobs.size() << " of " << total
            << " jobs (shard " << opt.common.shard.label() << ")\n";

    engine::Engine eng(
        engine::makeEngineConfig(opt.common, default_jobs_));
    if (std::string serr = eng.prepare(); !serr.empty()) {
        err << name_ << ": " << serr << "\n";
        return 1;
    }

    // Every grid point is one cached job whose payload is its encoded
    // rows, so a warm rerun renders exactly the bytes the cold run
    // rendered, and a stored entry that does not decode is recomputed
    // as one miss.
    const obs::ObsOptions &obs_opt = opt.common.obs;
    std::vector<FigureRows> results(jobs.size());
    std::vector<runner::JobStatus> status(jobs.size());
    std::vector<runner::CachedJob> batch(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const FigureTable &table = tables_[jobs[i].table];
        const FigurePoint &point = jobs[i].point;
        runner::CachedJob &job = batch[i];
        job.key = cache::figureKey(name_, table.title, point.label);
        job.obs = &obs_opt;
        job.compute = [&table, &point] {
            return cache::encodeRows(table.emit(point));
        };
        job.accept = [&rows = results[i]](const std::string &payload) {
            return cache::decodeRows(payload, rows);
        };
        job.status = &status[i];
    }
    eng.runJobs(batch);

    // Every job was attempted; report the lowest-indexed failure.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!status[i].error.empty()) {
            err << name_ << ": job " << i << ": " << status[i].error
                << "\n";
            return 1;
        }
    }

    // Render in declaration order; the job list is grouped by table
    // and ordered within it, so a linear scan assembles each table's
    // rows in expansion order.
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        const FigureTable &spec = tables_[t];
        Table table(spec.title);
        table.header(spec.header);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (jobs[j].table != t)
                continue;
            for (auto &row : results[j])
                table.addRow(std::move(row));
        }
        table.print(out);
        if (!spec.csvName.empty() &&
            !table.writeCsv(spec.csvName,
                            opt.common.shard.index == 0)) {
            err << name_ << ": cannot write CSV to " << spec.csvName
                << "\n";
            return 1;
        }
        if (!spec.note.empty())
            out << "\n" << spec.note << "\n";
    }

    if (obs_opt.enabled()) {
        std::vector<engine::ObsScenario> scenarios;
        scenarios.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            scenarios.push_back({i,
                                 tables_[jobs[i].table].title + ": " +
                                     jobs[i].point.label,
                                 {}, {}, {}, status[i].obs});
        const engine::ObsReport rep(obs_opt, std::move(scenarios),
                                    eng.store());
        if (std::string oerr = rep.writeOutputs(); !oerr.empty()) {
            err << name_ << ": " << oerr << "\n";
            return 1;
        }
    }

    if (eng.store())
        out << name_ << ": " << eng.store()->statsLine() << "\n";
    return 0;
}

int
FigureBench::main(int argc, char **argv) const
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    BenchOptions opt;
    if (std::string perr = parseBenchArgs(args, opt); !perr.empty()) {
        std::cerr << name_ << ": " << perr << "\n\n"
                  << benchUsageText();
        return 2;
    }
    if (opt.showHelp) {
        std::cout << name_ << " -- figure bench on the shared sweep"
                              " runner\n\n"
                  << benchUsageText();
        return 0;
    }
    try {
        return run(opt, std::cout, std::cerr);
    } catch (const std::exception &e) {
        std::cerr << name_ << ": " << e.what() << "\n";
        return 1;
    }
}

} // namespace bench
} // namespace canon
