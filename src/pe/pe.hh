/**
 * @file
 * The Canon processing element (Figure 4): a 3-stage pipeline around a
 * 4-wide INT8 vector lane.
 *
 *   LOAD    read operands from scratchpad / data memory / NoC ports /
 *           SIMD registers into the lane input registers.
 *   EXECUTE the vector lane computes (4 INT8 MACs or adds).
 *   COMMIT  write the result to scratchpad / registers / data memory,
 *           or send it to a neighbour; pass-through routes switched by
 *           ROUTER_CONF emit here too.
 *
 * PEs carry no control state beyond the pipeline registers: they
 * execute whatever the instruction NoC delivers. Local memories and
 * registers are PE-private, so stages apply in COMMIT->EXECUTE->LOAD
 * order within a cycle plus a single EXECUTE->LOAD forwarding path,
 * which yields exact sequential semantics for back-to-back
 * accumulations into the same location (the dense-GEMM inner loop).
 *
 * Structural rules from Section 3.1 are enforced by panics: one
 * transfer per NoC direction per cycle, one read and one write port on
 * each local memory per cycle.
 */

#ifndef CANON_PE_PE_HH
#define CANON_PE_PE_HH

#include <array>
#include <string>

#include "common/stats.hh"
#include "mem/vecram.hh"
#include "noc/inst_pipeline.hh"
#include "noc/router.hh"

namespace canon
{

/** Execution modes (Appendix D spatial support). */
enum class PeMode : std::uint8_t
{
    Streaming, //!< normal time-lapsed operation: execute the tap
    Config,    //!< spatial configuration phase: taps pass through inert
    Spatial,   //!< frozen pipeline: re-execute the latched tap forever
};

struct PeGeometry
{
    int row = 0;
    int col = 0;
};

class Pe final
{
  public:
    Pe(const PeGeometry &geo, int dmem_slots, int spad_slots,
       StatGroup &stats);

    void bindPipeline(InstPipeline *pipe) { pipe_ = pipe; }

    Router &router() { return router_; }
    VecRam &dmem() { return dmem_; }
    VecRam &spad() { return spad_; }

    void setMode(PeMode m) { mode_ = m; }
    PeMode mode() const { return mode_; }

    const Vec4 &reg(int r) const { return regs_[r]; }
    void pokeReg(int r, const Vec4 &v) { regs_[r] = v; }

    /** True iff no instruction is in flight in the pipeline. */
    bool idle() const;

    /** Counter read for the obs cycle accountant (a cycle with no
     *  busyCycles delta is an idle cycle). */
    std::uint64_t busyCyclesValue() const
    {
        return busyCycles_.value();
    }

    int row() const { return geo_.row; }
    int col() const { return geo_.col; }

    void tickCompute();
    void tickCommit();

  private:
    /**
     * Pipeline register between LOAD/EXECUTE and EXECUTE/COMMIT.
     * Kept trivially copyable (plain Vec4 + valid flags rather than
     * optionals) so the per-cycle register updates are flat copies.
     */
    struct StageReg
    {
        Instruction inst = nopInst();
        Vec4 a;        //!< op1 value
        Vec4 b;        //!< op2 value
        Vec4 resOld;   //!< prior contents of res (MAC accumulate)
        Vec4 west;     //!< west-in value for VvMacW
        Vec4 resultForwarded; //!< EXECUTE output (forwarding network)
        Vec4 routeN2S;
        Vec4 routeW2E;
        bool routeN2SValid = false;
        bool routeW2EValid = false;
        bool valid = false;
    };

    void commitStage(const StageReg &ex);
    StageReg executeStage(const StageReg &ld);
    StageReg loadStage(const Instruction &inst, const StageReg &fwd);

    /**
     * Spatial-mode firing rule: a held instruction executes only when
     * every port it reads has data and every port it writes has space
     * (Appendix D; the streaming mode instead relies on orchestrator
     * determinism and panics on a violated schedule).
     */
    bool spatialReady(const Instruction &inst) const;

    Vec4 readOperand(Addr a, const StageReg &fwd);
    Vec4 readPort(Dir d);
    void writeDest(Addr a, const Vec4 &v);

    PeGeometry geo_;
    std::string name_;
    VecRam dmem_;
    VecRam spad_;
    Router router_;
    std::array<Vec4, addrspace::kRegSize> regs_{};
    InstPipeline *pipe_ = nullptr;
    PeMode mode_ = PeMode::Streaming;

    StageReg ldReg_;  //!< instruction between LOAD and EXECUTE
    StageReg exReg_;  //!< instruction between EXECUTE and COMMIT
    StageReg ldNext_;
    StageReg exNext_;

    // Per-cycle port-read cache: one physical pop feeds every consumer
    // of the same input port in one instruction. Valid bits live in a
    // bitmask so clearing the cache is a single store.
    std::array<Vec4, kNumDirs> portCache_{};
    std::uint8_t portCacheValid_ = 0;

    // Per-cycle local-memory port accounting.
    int dmemReadsThisCycle_ = 0;
    int dmemWritesThisCycle_ = 0;
    int spadReadsThisCycle_ = 0;
    int spadWritesThisCycle_ = 0;

    Counter &busyCycles_;
    Counter &macOps_;
    Counter &aluOps_;
    Counter &regReads_;
    Counter &regWrites_;
};

} // namespace canon

#endif // CANON_PE_PE_HH
