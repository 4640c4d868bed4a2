#include "power/energy.hh"

#include <algorithm>

namespace canon
{

EnergyReport
EnergyModel::evaluate(const ExecutionProfile &p, double clock_ghz) const
{
    using enum Activity;
    EnergyReport r;
    r.cycles = p.cycles;
    r.clockGhz = clock_ghz;
    auto n = [&p](Activity a) { return static_cast<double>(p.get(a)); };
    auto cat = [&r](EnergyCategory c) -> double & {
        return r.categoriesPj[static_cast<std::size_t>(c)];
    };

    // Energy-active MAC events: systolic-style models report padded
    // activity in macSlots; cycle simulators report exact laneMacs.
    const auto mac_events =
        std::max(p.get(MacSlots), p.get(LaneMacs));

    cat(EnergyCategory::Compute) =
        static_cast<double>(mac_events) * params_.macInt8Pj +
        n(AluOps) * params_.aluAddPj + n(ShiftOps) * params_.shiftOpPj +
        n(NmSelectOps) * params_.nmSelectPj;

    cat(EnergyCategory::DataMem) =
        n(DmemReads) * params_.dmemReadPj +
        n(DmemWrites) * params_.dmemWritePj +
        n(EdgeSramReads) * params_.edgeSramReadPj +
        n(EdgeSramWrites) * params_.edgeSramWritePj;

    cat(EnergyCategory::SpadRead) = n(SpadReads) * params_.spadReadPj;
    cat(EnergyCategory::SpadWrite) = n(SpadWrites) * params_.spadWritePj;

    cat(EnergyCategory::ControlRouting) =
        n(RouterHops) * params_.routerHopPj +
        n(InstHops) * params_.instHopPj +
        n(LutLookups) * params_.lutLookupPj +
        n(OrchCycles) * params_.orchCyclePj +
        n(BufferSearches) * params_.bufferSearchPj +
        n(StateTransitions) * params_.stateTransitionPj +
        static_cast<double>(p.get(RegReads) + p.get(RegWrites)) *
            params_.regAccessPj +
        n(DecodeOps) * params_.decodeOpPj +
        n(CrossbarXfers) * params_.crossbarXferPj +
        n(InstFetches) * params_.instFetchPj;

    cat(EnergyCategory::Leakage) =
        static_cast<double>(p.peCount) *
        static_cast<double>(p.cycles) * params_.leakagePerPeCyclePj;

    r.totalPj = 0.0;
    for (const double v : r.categoriesPj)
        r.totalPj += v;
    return r;
}

} // namespace canon
