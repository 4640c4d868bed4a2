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
 *
 * issue() decodes the instruction once and resolves it against the
 * instruction issued one cycle before (resolve() in
 * isa/instruction.hh). Every streaming PE of the row loads the same
 * instructions in the same order, so each control decision is made
 * once per row, not once per PE and cycle. A frozen pipeline's taps
 * repeat, which breaks that order: spatial-mode PEs resolve for
 * themselves. The stages are a ring: a shift moves the head index
 * instead of copying every stage.
 */

#ifndef CANON_NOC_INST_PIPELINE_HH
#define CANON_NOC_INST_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
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

    /** Instruction visible at PE column @p c this cycle, resolved. */
    const DecodedInst &
    tap(int c) const
    {
        panicIf(c < 0 || c >= columns_, "InstPipeline: tap ", c, " out of ",
                columns_);
        std::size_t i = head_ + static_cast<std::size_t>(kIssueStagger * c);
        if (i >= depth_)
            i -= depth_;
        return stages_[i];
    }

    /** Stop/resume shifting (spatial mode). */
    void freeze(bool on) { frozen_ = on; }
    bool frozen() const { return frozen_; }

    /** True iff every stage currently holds a NOP. */
    bool drained() const;

    int columns() const { return columns_; }

    /** Issues stage externally; the shift happens at commit. */
    void tickCommit();

  private:
    int columns_;
    /** stages_.size(), kept so a tap does not divide by the element
     *  size. */
    std::size_t depth_;
    /** Stage k is stages_[(head_ + k) % depth_]; PE column c taps
     *  stage kIssueStagger * c. */
    std::vector<DecodedInst> stages_;
    std::size_t head_ = 0;
    DecodedInst staged_; //!< resolved; meaningful while issuedThisCycle_
    bool issuedThisCycle_ = false;
    bool frozen_ = false;
};

} // namespace canon

#endif // CANON_NOC_INST_PIPELINE_HH
