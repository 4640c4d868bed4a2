#include "noc/inst_pipeline.hh"

namespace canon
{

InstPipeline::InstPipeline(int columns)
    : columns_(columns),
      stages_(static_cast<std::size_t>(kIssueStagger) * (columns - 1) + 1)
{
    panicIf(columns <= 0, "InstPipeline: need at least one column");
}

void
InstPipeline::issue(const Instruction &inst)
{
    panicIf(issuedThisCycle_,
            "InstPipeline: orchestrator issued twice in one cycle");
    staged_ = decode(inst);
    issuedThisCycle_ = true;
}

bool
InstPipeline::drained() const
{
    // Word-for-word NOP: an instruction with op == Nop but live
    // address or route fields is still in flight.
    for (const auto &inst : stages_)
        if (inst != DecodedInst{})
            return false;
    return true;
}

void
InstPipeline::tickCommit()
{
    if (!frozen_) {
        // Shift by one: the old last stage falls off and its slot
        // becomes the new first stage.
        head_ = (head_ == 0 ? stages_.size() : head_) - 1;
        stages_[head_] = issuedThisCycle_ ? staged_ : DecodedInst{};
    }
    issuedThisCycle_ = false;
}

} // namespace canon
