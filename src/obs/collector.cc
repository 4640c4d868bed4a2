#include "obs/collector.hh"

#include <utility>

namespace canon
{
namespace obs
{

namespace
{

thread_local Collector *tlsCollector = nullptr;

} // namespace

void
Collector::recordFabricRun(std::map<std::string, std::uint64_t> flat,
                           std::uint64_t cycles, SeriesSet series,
                           AccountingSet accounting)
{
    FabricRunObs run;
    run.cycles = cycles;
    run.series = std::move(series);
    run.flat = std::move(flat);
    run.accounting = std::move(accounting);
    obs_.runs.push_back(std::move(run));
}

std::shared_ptr<const ScenarioObs>
Collector::finish()
{
    return std::make_shared<const ScenarioObs>(std::move(obs_));
}

Collector *
current()
{
    return tlsCollector;
}

ScopedCollector::ScopedCollector(Collector &c) : prev_(tlsCollector)
{
    tlsCollector = &c;
}

ScopedCollector::~ScopedCollector()
{
    tlsCollector = prev_;
}

} // namespace obs
} // namespace canon
