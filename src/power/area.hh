/**
 * @file
 * Component-census area model (Figures 9 and 10).
 *
 * Each architecture is a bill of materials over shared component
 * constants (mm^2 at a 22 nm-class node). The constants are
 * calibrated so that the Canon breakdown reproduces Figure 10
 * (58/13/16/5/8 % across data memory / scratchpad / compute /
 * routing / control) with individually plausible magnitudes; the
 * baseline deltas of Figure 9 (+30 % vs systolic, +9 % vs ZeD, -7 %
 * vs CGRA) then *follow from the census* rather than being asserted.
 * EXPERIMENTS.md records measured-vs-paper for all of them.
 */

#ifndef CANON_POWER_AREA_HH
#define CANON_POWER_AREA_HH

#include <map>
#include <string>

namespace canon
{

struct AreaParams
{
    // SRAM macro densities (mm^2 per KB).
    double sram1pPerKb = 0.0080;   //!< single-port data SRAM
    double sram2pPerKb = 0.0176;   //!< dual-port (scratchpad)
    double sramLutPerKb = 0.0040;  //!< high-density LUT macro
    double spadFixed = 0.0028;     //!< dual-port periphery per macro

    // Compute.
    double lane4Int8 = 0.00883; //!< 4-wide INT8 MAC lane + SIMD regs
    double scalarMacSite = 0.0018; //!< systolic/CGRA scalar MAC + regs

    // Interconnect.
    double canonRouter = 0.00276;  //!< circuit-switched 4-port router
    double cgraRouter = 0.0024;    //!< HyCUBE-style multi-hop router
    double zedCrossbar = 0.42;     //!< full distribution crossbar

    // Control.
    double orchLogic = 0.0113;   //!< FSM ALUs/registers per orchestrator
    double cgraInstMemPerPe = 0.0016; //!< per-PE instruction memory
    double cgraRegFilePerPe = 0.0008;
    double zedDecoderPerLane = 0.0008;
    double zedScheduler = 0.105;
    double systolicSequencer = 0.016;
    double systolicAccumKb = 24.0; //!< accumulator buffer KB
};

struct AreaBreakdown
{
    std::map<std::string, double> componentsMm2;

    double
    total() const
    {
        double t = 0.0;
        for (const auto &[_, v] : componentsMm2)
            t += v;
        return t;
    }

    double
    share(const std::string &name) const
    {
        auto it = componentsMm2.find(name);
        return it == componentsMm2.end() || total() == 0.0
                   ? 0.0
                   : it->second / total();
    }
};

class AreaModel
{
  public:
    explicit AreaModel(const AreaParams &params = {}) : params_(params)
    {
    }

    /**
     * Canon at @p rows x @p cols with @p dmem_kb data memory per PE
     * and @p spad_bytes scratchpad per PE. Components: dataMem, spad,
     * compute, routing, control.
     */
    AreaBreakdown canon(int rows = 8, int cols = 8,
                        double dmem_kb = 4.0,
                        double spad_bytes = 256.0) const;

    /** Systolic array with @p macs MACs and ~1 KB SRAM per MAC. */
    AreaBreakdown systolic(int macs = 256) const;

    /** ZeD with @p lanes multiplier lanes. */
    AreaBreakdown zed(int lanes = 256) const;

    /** CGRA with @p pes scalar PEs. */
    AreaBreakdown cgra(int pes = 256) const;

    const AreaParams &params() const { return params_; }

  private:
    AreaParams params_;
};

} // namespace canon

#endif // CANON_POWER_AREA_HH
