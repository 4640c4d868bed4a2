#include "obs/sampler.hh"

#include <map>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"

namespace canon
{
namespace obs
{

namespace
{

/** Metrics summed fabric-wide into the "fabric" component. */
const char *const kFabricMetrics[] = {
    "busyCycles",     "macOps",       "stallCycles",
    "tagCompares",    "bufferSearches", "spadResidentSum",
    "spadCapCycles",  "instIssued",
};

/** Metrics additionally split out per top-level "orch*" child. */
const char *const kOrchMetrics[] = {
    "spadResidentSum",
    "spadCapCycles",
    "tagCompares",
    "stallCycles",
};

std::string
leafOf(const std::string &path)
{
    auto dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(dot + 1);
}

std::string
topOf(const std::string &path)
{
    auto dot = path.find('.');
    return dot == std::string::npos ? std::string() : path.substr(0, dot);
}

} // namespace

CycleSampler::CycleSampler(const StatGroup &stats)
{
    // (metric, component) -> summed counter sources. std::map keys the
    // probe order, so the series layout is independent of counter
    // registration order (visitCounters is itself lexicographic).
    std::map<std::pair<std::string, std::string>,
             std::vector<const Counter *>>
        probes;
    stats.visitCounters([&](const std::string &path, const Counter &c) {
        const std::string leaf = leafOf(path);
        for (const char *m : kFabricMetrics)
            if (leaf == m)
                probes[{leaf, "fabric"}].push_back(&c);
        const std::string top = topOf(path);
        if (top.rfind("orch", 0) == 0)
            for (const char *m : kOrchMetrics)
                if (leaf == m)
                    probes[{leaf, top}].push_back(&c);
    });

    probes_.reserve(probes.size());
    for (auto &[key, sources] : probes)
        probes_.push_back({key.first, key.second, std::move(sources)});
    points_.resize(probes_.size());
}

void
CycleSampler::capture(std::uint64_t cycle)
{
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        std::uint64_t sum = 0;
        for (const Counter *c : probes_[i].sources)
            sum += c->value();
        points_[i].push_back({cycle, sum});
    }
}

SeriesSet
CycleSampler::take()
{
    SeriesSet out;
    out.series.reserve(probes_.size());
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        Series s;
        s.metric = probes_[i].metric;
        s.component = probes_[i].component;
        s.points = std::move(points_[i]);
        points_[i].clear();
        out.series.push_back(std::move(s));
    }
    return out;
}

CycleProbe::CycleProbe(std::uint64_t every,
                       std::unique_ptr<CycleSampler> sampler,
                       std::unique_ptr<CycleAccountant> accountant)
    : every_(every), sampler_(std::move(sampler)),
      accountant_(std::move(accountant))
{
    panicIf(!sampler_ && !accountant_, "CycleProbe: nothing to drive");
    panicIf(sampler_ && every_ == 0,
            "CycleProbe: sampling needs a cadence > 0");
}

void
CycleProbe::captureSeries()
{
    if (sampler_)
        sampler_->capture(tick_);
    if (accountant_)
        accountant_->captureSeries(tick_);
    lastCaptured_ = tick_;
    captured_ = true;
}

void
CycleProbe::captureFinal()
{
    if (every_ > 0 && (!captured_ || lastCaptured_ != tick_))
        captureSeries();
}

SeriesSet
CycleProbe::takeSeries()
{
    SeriesSet out;
    if (sampler_)
        out = sampler_->take();
    if (accountant_ && every_ > 0)
        for (Series &s : accountant_->takeSeries().series)
            out.series.push_back(std::move(s));
    return out;
}

AccountingSet
CycleProbe::takeAccounting() const
{
    return accountant_ ? accountant_->take(tick_) : AccountingSet{};
}

} // namespace obs
} // namespace canon
