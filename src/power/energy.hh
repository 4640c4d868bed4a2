/**
 * @file
 * Activity-based energy model.
 *
 * The paper synthesizes at 22 nm FDSOI and reports *relative* power
 * (Figures 11, 13, 14); this model substitutes per-event energy
 * constants of 22 nm-class magnitude (documented per field) applied
 * to the activity counters of an ExecutionProfile. The absolute
 * numbers land in the same regime as Figure 11 (around 1-2 mW per PE
 * for dense streaming at 1 GHz); the figure-level comparisons only
 * consume ratios.
 *
 * Categories mirror Figure 11's breakdown: Data Memory, Spad-Read,
 * Spad-Write, Compute, Control & Routing (+ leakage).
 */

#ifndef CANON_POWER_ENERGY_HH
#define CANON_POWER_ENERGY_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "power/profile.hh"

namespace canon
{

struct EnergyParams
{
    // Compute (per lane operation).
    double macInt8Pj = 0.06;  //!< INT8 MAC incl. INT32 accumulate
    double aluAddPj = 0.03;   //!< vector add/move lane op
    double nmSelectPj = 0.02; //!< 2:4 metadata mux per lane

    // Local memories (per Vec4 access).
    double dmemReadPj = 0.45;  //!< 4 B from a 4 KB single-port SRAM
    double dmemWritePj = 0.50;
    double spadReadPj = 0.45;  //!< 16 B from the small dual-port SRAM
    double spadWritePj = 0.50;
    double regAccessPj = 0.02;

    // Shared/edge SRAM (per word) for the baseline organizations.
    double edgeSramReadPj = 0.20;
    double edgeSramWritePj = 0.25;

    /**
     * Systolic datapath shifting: the A/psum register-chain movement
     * every active PE performs each cycle -- the systolic array's
     * counterpart of Canon's local-memory access (without it a
     * systolic MAC would look implausibly free; Figure 11 shows the
     * two designs at comparable per-PE power on GEMM).
     */
    double shiftOpPj = 0.12;

    // Interconnect and control.
    double routerHopPj = 0.12; //!< circuit-switched hop (width-avg)
    double instHopPj = 0.03;   //!< 64 b instruction NoC stage
    double lutLookupPj = 0.15; //!< 6 KB LUT read (48 b)
    double orchCyclePj = 0.08; //!< orchestrator ALUs/registers
    double bufferSearchPj = 0.10; //!< associative tag probe
    double stateTransitionPj = 0.02;

    // Baseline-specific datapaths.
    double decodeOpPj = 0.35;    //!< ZeD sparse-format decode per nnz
    double crossbarXferPj = 0.50; //!< ZeD distribution crossbar
    double instFetchPj = 0.18;   //!< CGRA per-PE instruction fetch

    // Static power, folded per PE-cycle.
    double leakagePerPeCyclePj = 0.03;
};

/**
 * Figure 11's energy categories. EnergyModel::evaluate sums them into
 * totalPj in this order (the ASCII order of their names), so the
 * total's rounding is fixed by the enumerator order.
 */
enum class EnergyCategory : std::uint8_t
{
    Compute,        //!< MACs, ALU ops, systolic shifts, 2:4 selects
    ControlRouting, //!< NoC hops, LUT, orchestrator, tag probes, ...
    DataMem,        //!< per-PE data memory and edge SRAM
    Leakage,        //!< static power, per PE-cycle
    SpadRead,       //!< scratchpad reads
    SpadWrite,      //!< scratchpad writes
};

inline constexpr std::size_t kEnergyCategoryCount = 6;

struct EnergyReport
{
    std::array<double, kEnergyCategoryCount> categoriesPj{};
    double totalPj = 0.0;
    std::uint64_t cycles = 0;
    double clockGhz = 1.0;

    double totalJoules() const { return totalPj * 1e-12; }

    double
    seconds() const
    {
        return static_cast<double>(cycles) / (clockGhz * 1e9);
    }

    /** Average power over the execution. */
    double
    watts() const
    {
        return seconds() > 0.0 ? totalJoules() / seconds() : 0.0;
    }

    /** Energy-delay product in J*s (Figure 14). */
    double edp() const { return totalJoules() * seconds(); }

    double
    category(EnergyCategory c) const
    {
        return categoriesPj[static_cast<std::size_t>(c)];
    }
};

class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params = {})
        : params_(params)
    {
    }

    EnergyReport evaluate(const ExecutionProfile &profile,
                          double clock_ghz = 1.0) const;


  private:
    EnergyParams params_;
};

} // namespace canon

#endif // CANON_POWER_ENERGY_HH
