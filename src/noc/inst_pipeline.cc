#include "noc/inst_pipeline.hh"

#include <new>

namespace canon
{

namespace
{

// What a shift with no issue copies in. A DecodedInst{} built on the
// stack and copied whole at once would stall on store forwarding.
constexpr DecodedInst kNop{};

/** Validated before the stages are sized from it. */
std::size_t
checkedStages(int columns)
{
    panicIf(columns <= 0, "InstPipeline: need at least one column");
    return static_cast<std::size_t>(kIssueStagger) * (columns - 1) + 1;
}

} // namespace

InstPipeline::InstPipeline(int columns)
    : columns_(columns), depth_(checkedStages(columns)), stages_(depth_)
{
}

void
InstPipeline::issue(const Instruction &inst)
{
    panicIf(issuedThisCycle_,
            "InstPipeline: orchestrator issued twice in one cycle");
    // Decoded straight into staged_ (guaranteed elision) and resolved
    // there against stage 0: the instruction issued one cycle earlier
    // (a NOP if none was), which every PE of the row loads one cycle
    // before this one. Assigning a decoded temporary instead would copy
    // it whole right after storing it field by field, and that copy
    // stalls on store forwarding; the shift copies staged_ a phase
    // later.
    ::new (&staged_) DecodedInst(decode(inst));
    resolve(stages_[head_], staged_);
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
        head_ = (head_ == 0 ? depth_ : head_) - 1;
        stages_[head_] = issuedThisCycle_ ? staged_ : kNop;
    }
    issuedThisCycle_ = false;
}

} // namespace canon
