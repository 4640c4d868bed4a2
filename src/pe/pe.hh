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
 * execute whatever the instruction NoC delivers, already decoded and
 * resolved against its predecessor (resolve() in isa/instruction.hh),
 * so one tick is straight-line: pop each input port the instruction
 * names once, read each operand from its resolved source, commit by
 * the resolved dead-write bits. Local memories and registers are
 * PE-private, so stages apply in COMMIT->EXECUTE->LOAD order within a
 * cycle plus a single EXECUTE->LOAD forwarding path, which yields
 * exact sequential semantics for back-to-back accumulations into the
 * same location (the dense-GEMM inner loop). EXECUTE reads only what
 * LOAD latched, so the model computes the result at LOAD; EXECUTE
 * keeps its cycle for the op counters.
 *
 * Structural rules from Section 3.1 are enforced by panics: one
 * transfer per NoC direction per cycle, one read and one write port on
 * each local memory per cycle. The LOAD-side ones are found by
 * resolve() and raised when the instruction loads.
 */

#ifndef CANON_PE_PE_HH
#define CANON_PE_PE_HH

#include <array>
#include <string>
#include <utility>

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
    Pe(const PeGeometry &geo, int dmem_slots, int spad_slots);

    // ld_ and ex_ point into this object.
    Pe(const Pe &) = delete;
    Pe &operator=(const Pe &) = delete;

    void bindPipeline(InstPipeline *pipe) { pipe_ = pipe; }

    Router &router() { return router_; }
    VecRam<Elem> &dmem() { return dmem_; }
    VecRam<Word> &spad() { return spad_; }

    void setMode(PeMode m) { mode_ = m; }
    PeMode mode() const { return mode_; }

    const Vec4 &reg(int r) const { return regs_[r]; }

    /**
     * True iff no instruction is in flight in the pipeline. Read it
     * before the PE's tickCompute() of a cycle: that refills a stage
     * register in place, and the pair is consistent again only after
     * tickCommit().
     */
    bool idle() const { return !ld_->valid && !ex_->valid; }

    /** Counter read for the obs cycle accountant (a cycle with no
     *  busyCycles delta is an idle cycle). */
    std::uint64_t busyCyclesValue() const
    {
        return busyCycles_.value();
    }

    int row() const { return geo_.row; }
    int col() const { return geo_.col; }

    /** "peR_C": diagnostics, and the group of this PE's counters. */
    const std::string &name() const { return name_; }

    /** Visit every counter, its memories' and its router's included,
     *  as (leaf name, counter). */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        fn("busyCycles", busyCycles_);
        fn("macOps", macOps_);
        fn("aluOps", aluOps_);
        fn("regReads", regReads_);
        fn("regWrites", regWrites_);
        dmem_.forEachCounter(fn);
        spad_.forEachCounter(fn);
        router_.forEachCounter(fn);
    }

    void tickCompute();

    /** Publish the stage registers tickCompute() filled (no copy). */
    void tickCommit() { std::swap(ld_, ex_); }

  private:
    /**
     * A pipeline register: LOAD/EXECUTE or EXECUTE/COMMIT. The PE owns
     * two and swaps their roles at every commit (see tickCompute()).
     */
    struct StageReg
    {
        DecodedInst inst;
        Vec4 result; //!< computed at LOAD (forwarding network)
        /** Vectors LOAD popped, by Dir (inst.pops names them); the
         *  pass-through routes emit theirs at COMMIT. */
        std::array<Vec4, kNumDirs> in;
        bool valid = false;
    };

    // One call each per busy tick: forced inline into tickCompute()
    // (defined in pe.cc).
    [[gnu::always_inline]] inline void commitStage(const StageReg &ex,
                                                   std::uint8_t kills);
    [[gnu::always_inline]] inline void executeStage(const StageReg &ld);
    [[gnu::always_inline]] inline void
    loadStage(const DecodedInst &inst, const StageReg &fwd, StageReg &ld);

    /**
     * Raise the panic LOAD hits on @p inst: the structural fault
     * resolve() found, or an input port that is unbound or empty. The
     * reads before it run first, in operand order, so a port or slot
     * fault ahead of it fires instead, exactly as a read-by-read LOAD
     * would.
     */
    [[noreturn, gnu::cold]] void loadFault(const DecodedInst &inst);

    /**
     * Spatial-mode firing rule: a held instruction executes only when
     * every port it reads has data and every port it writes has space
     * (Appendix D; the streaming mode instead relies on orchestrator
     * determinism and panics on a violated schedule).
     */
    bool spatialReady(const DecodedInst &inst) const;

    // Up to two calls per busy tick (a VFlush writes twice): forced
    // inline too.
    [[gnu::always_inline]] inline void writeDest(const Operand &a,
                                                 const Vec4 &v);

    PeGeometry geo_;
    std::string name_;
    VecRam<Elem> dmem_;
    VecRam<Word> spad_;
    Router router_;
    std::array<Vec4, addrspace::kRegSize> regs_{};
    InstPipeline *pipe_ = nullptr;
    PeMode mode_ = PeMode::Streaming;

    std::array<StageReg, 2> stages_{};
    StageReg *ld_ = &stages_[0]; //!< instruction between LOAD and EXECUTE
    StageReg *ex_ = &stages_[1]; //!< instruction between EXECUTE and COMMIT
    DecodedInst held_; //!< spatial mode: the held tap, resolved

    Counter busyCycles_;
    Counter macOps_;
    Counter aluOps_;
    Counter regReads_;
    Counter regWrites_;
};

} // namespace canon

#endif // CANON_PE_PE_HH
