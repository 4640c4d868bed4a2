#include "obs/sampler.hh"

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

/** Metrics additionally split out per "orch*" group. */
const char *const kOrchMetrics[] = {
    "spadResidentSum",
    "spadCapCycles",
    "tagCompares",
    "stallCycles",
};

} // namespace

void
CycleSampler::track(std::string_view group, std::string_view leaf,
                    const Counter &ctr)
{
    for (const char *m : kFabricMetrics)
        if (leaf == m)
            probes_[{std::string(leaf), "fabric"}].sources.push_back(&ctr);
    if (group.starts_with("orch"))
        for (const char *m : kOrchMetrics)
            if (leaf == m)
                probes_[{std::string(leaf), std::string(group)}]
                    .sources.push_back(&ctr);
}

void
CycleSampler::capture(std::uint64_t cycle)
{
    for (auto &[key, probe] : probes_) {
        std::uint64_t sum = 0;
        for (const Counter *c : probe.sources)
            sum += c->value();
        probe.points.push_back({cycle, sum});
    }
}

SeriesSet
CycleSampler::take()
{
    SeriesSet out;
    out.series.reserve(probes_.size());
    for (auto &[key, probe] : probes_) {
        Series s;
        s.metric = key.first;
        s.component = key.second;
        s.points = std::move(probe.points);
        probe.points.clear();
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
