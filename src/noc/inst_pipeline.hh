/**
 * @file
 * The instruction-dedicated NoC of one PE row (Figures 2 and 3).
 *
 * The orchestrator pushes one encoded instruction per cycle into the
 * head of the row; the word shifts one stage per cycle. PE column c
 * taps the pipeline at depth kIssueStagger * c, so it observes the
 * instruction the orchestrator issued 3c cycles earlier -- the
 * time-lapsed SIMD stagger. "an instruction ... is issued to the first
 * PE in cycle 1, then traverses a 3-cycle pipeline before reaching the
 * second PE in cycle 4" (Section 2).
 *
 * freeze() supports the spatial execution mode of Appendix D: after a
 * configuration phase has shifted per-column instructions into place,
 * freezing stops propagation and every PE keeps re-executing its
 * latched instruction.
 */

#ifndef CANON_NOC_INST_PIPELINE_HH
#define CANON_NOC_INST_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "isa/instruction.hh"

namespace canon
{

/** Cycles between consecutive PEs seeing the same instruction. */
constexpr int kIssueStagger = 3;

class InstPipeline final
{
  public:
    explicit InstPipeline(int columns);

    /** Stage the instruction entering the row this cycle. */
    void issue(const Instruction &inst);

    /** Instruction visible at PE column @p c this cycle. */
    const Instruction &tap(int c) const;

    /** Stop/resume shifting (spatial mode). */
    void freeze(bool on) { frozen_ = on; }
    bool frozen() const { return frozen_; }

    /** True iff every stage currently holds a NOP. */
    bool drained() const;

    int columns() const { return columns_; }

    /** Issues stage externally; the shift happens at commit. */
    void tickCommit();

  private:
    // The hardware shifts the encoded 64-bit word (encode/decode
    // round-trips exactly); the model keeps stages decoded so a tap is
    // a reference into the shift array instead of a decode per PE per
    // cycle.
    int columns_;
    std::vector<Instruction> stages_;
    Instruction staged_;
    bool issuedThisCycle_ = false;
    bool frozen_ = false;
};

} // namespace canon

#endif // CANON_NOC_INST_PIPELINE_HH
