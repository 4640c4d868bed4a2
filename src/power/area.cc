#include "power/area.hh"

namespace canon
{

AreaBreakdown
AreaModel::canon(int rows, int cols, double dmem_kb,
                 double spad_bytes) const
{
    const int pes = rows * cols;
    AreaBreakdown b;
    b.componentsMm2["dataMem"] = pes * dmem_kb * params_.sram1pPerKb;
    b.componentsMm2["spad"] =
        pes * (spad_bytes / 1024.0 * params_.sram2pPerKb +
               params_.spadFixed);
    b.componentsMm2["compute"] = pes * params_.lane4Int8;
    b.componentsMm2["routing"] = pes * params_.canonRouter;
    // Control: one orchestrator (FSM logic + 6 KB LUT) per row.
    b.componentsMm2["control"] =
        rows * (params_.orchLogic + 6.0 * params_.sramLutPerKb);
    return b;
}

AreaBreakdown
AreaModel::systolic(int macs) const
{
    AreaBreakdown b;
    // ~1 KB of edge SRAM per MAC plus the accumulator buffer; the
    // figure-10 grouping folds accumulators into "data memory".
    b.componentsMm2["dataMem"] =
        (macs * 1.0 + params_.systolicAccumKb) * params_.sram1pPerKb +
        params_.systolicSequencer;
    b.componentsMm2["compute"] = macs * params_.scalarMacSite;
    return b;
}

AreaBreakdown
AreaModel::zed(int lanes) const
{
    AreaBreakdown b;
    b.componentsMm2["dataMem"] = lanes * 1.0 * params_.sram1pPerKb;
    b.componentsMm2["compute"] = lanes * params_.scalarMacSite;
    b.componentsMm2["crossbar"] = params_.zedCrossbar;
    b.componentsMm2["decoders"] = lanes * params_.zedDecoderPerLane;
    b.componentsMm2["control"] = params_.zedScheduler;
    return b;
}

AreaBreakdown
AreaModel::cgra(int pes) const
{
    AreaBreakdown b;
    b.componentsMm2["dataMem"] = pes * 1.0 * params_.sram1pPerKb;
    b.componentsMm2["compute"] =
        pes * (params_.scalarMacSite + params_.cgraRegFilePerPe);
    b.componentsMm2["routing"] = pes * params_.cgraRouter;
    b.componentsMm2["control"] = pes * params_.cgraInstMemPerPe;
    return b;
}

} // namespace canon
