#include "engine/obs_report.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <ostream>

#include "common/table.hh"
#include "obs/json.hh"
#include "obs/series.hh"
#include "obs/trace.hh"
#include "runner/aggregate.hh"

namespace canon
{
namespace engine
{

namespace
{

const char *
cacheEventName(obs::CacheEventKind k)
{
    switch (k) {
      case obs::CacheEventKind::Probe:
        return "probe";
      case obs::CacheEventKind::Hit:
        return "hit";
      case obs::CacheEventKind::Miss:
        return "miss";
      case obs::CacheEventKind::Store:
        return "store";
    }
    return "?";
}

/**
 * A scenario's span on the virtual timeline: the cycles it simulated,
 * falling back to the slowest recorded architecture for scenarios
 * that were satisfied from the cache (nothing ran, but the decoded
 * profiles are deterministic).
 */
std::uint64_t
scenarioDuration(const ObsScenario &s)
{
    if (s.obs && !s.obs->runs.empty()) {
        std::uint64_t d = 0;
        for (const auto &run : s.obs->runs)
            d += run.cycles;
        return d;
    }
    std::uint64_t mx = 0;
    for (const auto &[_, profile] : s.cases)
        mx = std::max(mx, profile.cycles);
    return mx;
}

/**
 * "<abs> <pct>%" cell: integer-only percent with one decimal digit
 * (round half up), so the rendered table is deterministic.
 */
std::string
catCell(std::uint64_t v, std::uint64_t total)
{
    const std::uint64_t pm =
        total == 0 ? 0 : (v * 1000 + total / 2) / total;
    return Table::fmtInt(v) + " " + std::to_string(pm / 10) + "." +
           std::to_string(pm % 10) + "%";
}

} // namespace

ObsReport::ObsReport(const obs::ObsOptions &opt,
                     std::vector<ObsScenario> scenarios,
                     const cache::ResultStore *store)
    : options_(opt)
{
    if (!opt.enabled())
        return;
    scenarios_ = std::move(scenarios);
    if (store) {
        haveCacheTotals_ = true;
        cacheTotals_ = store->stats();
    }
}

ObsReport
ObsReport::build(const obs::ObsOptions &opt,
                 const std::vector<runner::ScenarioResult> &results,
                 const cache::ResultStore *store)
{
    std::vector<ObsScenario> scenarios;
    if (opt.enabled()) {
        scenarios.reserve(results.size());
        for (const auto &r : results)
            scenarios.push_back(
                {r.job.index, r.job.point, r.error,
                 runner::orderedArchs(r.job.options, r.cases), r.cases,
                 r.obs});
    }
    return ObsReport(opt, std::move(scenarios), store);
}

void
ObsReport::writeSeriesCsv(std::ostream &os) const
{
    if (!enabled())
        return;
    os << obs::kSeriesCsvHeader << '\n';
    for (const ObsScenario &s : scenarios_) {
        if (!s.obs)
            continue;
        for (std::size_t p = 0; p < s.obs->runs.size(); ++p)
            obs::writeSeriesCsv(os, s.index, p, s.obs->runs[p].series);
    }
}

void
ObsReport::writeTrace(std::ostream &os) const
{
    if (!enabled())
        return;
    using obs::TraceEvent;
    std::vector<TraceEvent> ev;

    {
        TraceEvent p;
        p.phase = 'M';
        p.name = "process_name";
        p.sargs.push_back({"name", "canon"});
        ev.push_back(std::move(p));
    }
    auto threadName = [&](int tid, const char *name) {
        TraceEvent m;
        m.phase = 'M';
        m.name = "thread_name";
        m.tid = tid;
        m.sargs.push_back({"name", name});
        ev.push_back(std::move(m));
    };
    threadName(0, "engine");
    threadName(1, "sim");

    // Virtual timeline: scenarios tile back to back in expansion
    // order, so the trace bytes are independent of worker scheduling.
    std::uint64_t now = 0;
    for (const ObsScenario &s : scenarios_) {
        const std::uint64_t dur = scenarioDuration(s);

        TraceEvent span;
        span.phase = 'X';
        span.name = "scenario " + std::to_string(s.index);
        span.cat = "engine";
        span.ts = now;
        span.dur = dur;
        span.tid = 0;
        span.args.push_back({"index", s.index});
        if (!s.point.empty())
            span.sargs.push_back({"point", s.point});
        if (!s.error.empty())
            span.sargs.push_back({"error", s.error});
        ev.push_back(std::move(span));

        if (!s.obs)
            continue;

        for (obs::CacheEventKind k : s.obs->cacheEvents) {
            TraceEvent i;
            i.phase = 'i';
            i.name = std::string("cache.") + cacheEventName(k);
            i.cat = "cache";
            // Probe/hit/miss happen before the scenario's simulated
            // window, stores after it completes.
            i.ts = k == obs::CacheEventKind::Store ? now + dur : now;
            i.tid = 0;
            i.args.push_back({"scenario", s.index});
            ev.push_back(std::move(i));
        }

        std::uint64_t t = now;
        for (std::size_t p = 0; p < s.obs->runs.size(); ++p) {
            const auto &run = s.obs->runs[p];
            TraceEvent x;
            x.phase = 'X';
            x.name = "sim.run";
            x.cat = "sim";
            x.ts = t;
            x.dur = run.cycles;
            x.tid = 1;
            x.args.push_back({"scenario", s.index});
            x.args.push_back({"pass", p});
            x.args.push_back({"cycles", run.cycles});
            ev.push_back(std::move(x));

            // Counter tracks: one 'C' event per metric per capture,
            // carrying every component's cumulative value. Series of
            // one metric are contiguous (the set is (metric,
            // component)-ordered) and all series share the same
            // capture cycles.
            const auto &series = run.series.series;
            const std::size_t npts =
                series.empty() ? 0 : series[0].points.size();
            for (std::size_t k = 0; k < npts; ++k) {
                std::size_t i = 0;
                while (i < series.size()) {
                    std::size_t j = i;
                    TraceEvent c;
                    c.phase = 'C';
                    c.name = series[i].metric;
                    c.cat = "sample";
                    c.ts = t + series[i].points[k].cycle;
                    c.tid = 1;
                    while (j < series.size() &&
                           series[j].metric == series[i].metric) {
                        c.args.push_back({series[j].component,
                                          series[j].points[k].value});
                        ++j;
                    }
                    ev.push_back(std::move(c));
                    i = j;
                }
            }
            t += run.cycles;
        }
        now += dur;
    }
    obs::writeChromeTrace(os, ev);
}

bool
ObsReport::hasAccounting() const
{
    for (const ObsScenario &s : scenarios_) {
        if (!s.obs)
            continue;
        for (const auto &run : s.obs->runs)
            if (!run.accounting.empty())
                return true;
    }
    return false;
}

void
ObsReport::writeAccounting(std::ostream &os) const
{
    for (const ObsScenario &s : scenarios_) {
        if (!s.obs)
            continue;
        for (std::size_t p = 0; p < s.obs->runs.size(); ++p) {
            const obs::AccountingSet &acct =
                s.obs->runs[p].accounting;
            if (acct.empty())
                continue;

            std::string title =
                "Cycle accounting -- scenario " +
                std::to_string(s.index);
            if (!s.point.empty())
                title += " (" + s.point + ")";
            if (s.obs->runs.size() > 1)
                title += ", pass " + std::to_string(p);
            title += ": " + Table::fmtInt(acct.cycles) +
                     " observed cycles";

            Table t(title);
            std::vector<std::string> head{"Component", "Cycles"};
            for (int c = 0; c < obs::kCycleCatCount; ++c)
                head.push_back(obs::cycleCatName(c));
            t.header(std::move(head));

            // Fabric rollup first, then every component.
            obs::ComponentAccount fabric;
            fabric.component = "fabric";
            for (const auto &comp : acct.components)
                for (int c = 0; c < obs::kCycleCatCount; ++c)
                    fabric.cycles[static_cast<std::size_t>(c)] +=
                        comp.cycles[static_cast<std::size_t>(c)];
            auto addRow = [&t](const obs::ComponentAccount &a) {
                const std::uint64_t total = a.total();
                std::vector<std::string> row{a.component,
                                             Table::fmtInt(total)};
                for (int c = 0; c < obs::kCycleCatCount; ++c)
                    row.push_back(catCell(
                        a.cycles[static_cast<std::size_t>(c)],
                        total));
                t.addRow(std::move(row));
            };
            addRow(fabric);
            for (const auto &comp : acct.components)
                addRow(comp);
            t.print(os);
        }
    }
}

void
ObsReport::writeStatsJson(std::ostream &os) const
{
    if (!enabled())
        return;
    obs::JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "canon.stats.v2");
    w.key("scenarios");
    w.beginArray();
    for (const ObsScenario &s : scenarios_) {
        w.beginObject();
        w.kv("index", static_cast<std::uint64_t>(s.index));
        w.kv("point", s.point);
        if (!s.error.empty())
            w.kv("error", s.error);
        if (!s.archs.empty()) {
            w.key("archs");
            w.beginArray();
            for (const std::string &a : s.archs) {
                auto it = s.cases.find(a);
                if (it == s.cases.end())
                    continue;
                const ExecutionProfile &p = it->second;
                w.beginObject();
                w.kv("arch", a);
                w.kv("cycles", p.cycles);
                w.kv("peCount", p.peCount);
                w.key("activity");
                w.beginObject();
                for (const auto &[k, v] : p.activity)
                    w.kv(k, v);
                w.endObject();
                w.endObject();
            }
            w.endArray();
        }
        if (s.obs) {
            if (!s.obs->cacheEvents.empty()) {
                w.key("cache");
                w.beginArray();
                for (obs::CacheEventKind k : s.obs->cacheEvents)
                    w.value(cacheEventName(k));
                w.endArray();
            }
            // Only executed scenarios carry simulation runs; a
            // cache-hit scenario simulated nothing.
            if (!s.obs->runs.empty()) {
                w.key("sim");
                w.beginObject();
                w.key("runs");
                w.beginArray();
                for (const auto &run : s.obs->runs) {
                    w.beginObject();
                    w.kv("cycles", run.cycles);
                    if (!run.flat.empty()) {
                        w.key("stats");
                        w.beginObject();
                        for (const auto &[k, v] : run.flat)
                            w.kv(k, v);
                        w.endObject();
                    }
                    const obs::AccountingSet &acct = run.accounting;
                    if (!acct.empty()) {
                        w.key("accounting");
                        w.beginObject();
                        w.kv("cycles", acct.cycles);
                        // An array (not an object) keeps the fixed
                        // component order explicit.
                        w.key("components");
                        w.beginArray();
                        for (const auto &comp : acct.components) {
                            w.beginObject();
                            w.kv("component", comp.component);
                            for (int c = 0;
                                 c < obs::kCycleCatCount; ++c)
                                w.kv(obs::cycleCatName(c),
                                     comp.cycles[static_cast<
                                         std::size_t>(c)]);
                            w.kv("total", comp.total());
                            w.endObject();
                        }
                        w.endArray();
                        w.endObject();
                    }
                    if (!acct.histograms.empty()) {
                        w.key("histograms");
                        w.beginArray();
                        for (const auto &h : acct.histograms) {
                            w.beginObject();
                            w.kv("metric", h.metric);
                            w.kv("component", h.component);
                            w.kv("samples", h.hist.samples());
                            w.key("counts");
                            w.beginArray();
                            for (std::uint64_t c : h.hist.counts())
                                w.value(c);
                            w.endArray();
                            w.endObject();
                        }
                        w.endArray();
                    }
                    w.endObject();
                }
                w.endArray();
                w.endObject();
            }
            if (s.obs->host.measured) {
                w.key("host");
                w.beginObject();
                w.kv("queueWaitUs", s.obs->host.queueWaitUs);
                w.kv("cacheProbeUs", s.obs->host.cacheProbeUs);
                w.kv("simUs", s.obs->host.simUs);
                w.kv("encodeUs", s.obs->host.encodeUs);
                w.kv("cacheStoreUs", s.obs->host.cacheStoreUs);
                w.endObject();
            }
        }
        w.endObject();
    }
    w.endArray();
    if (haveCacheTotals_) {
        w.key("cache");
        w.beginObject();
        w.kv("hits", cacheTotals_.hits);
        w.kv("misses", cacheTotals_.misses);
        w.kv("stores", cacheTotals_.stores);
        w.endObject();
    }
    w.endObject();
    os << '\n';
}

std::string
ObsReport::writeOutputs() const
{
    auto writeFile =
        [](const std::string &path,
           const std::function<void(std::ostream &)> &writer)
        -> std::string {
        std::ofstream os(path, std::ios::binary);
        if (!os)
            return "cannot open '" + path + "' for writing";
        writer(os);
        os.flush();
        if (!os)
            return "error writing '" + path + "'";
        return {};
    };

    if (!options_.seriesOut.empty())
        if (std::string err =
                writeFile(options_.seriesOut,
                          [this](std::ostream &os) {
                              writeSeriesCsv(os);
                          });
            !err.empty())
            return err;
    if (!options_.traceOut.empty())
        if (std::string err = writeFile(options_.traceOut,
                                        [this](std::ostream &os) {
                                            writeTrace(os);
                                        });
            !err.empty())
            return err;
    if (!options_.statsJsonOut.empty())
        if (std::string err = writeFile(options_.statsJsonOut,
                                        [this](std::ostream &os) {
                                            writeStatsJson(os);
                                        });
            !err.empty())
            return err;
    return {};
}

} // namespace engine
} // namespace canon
