/**
 * @file
 * The row orchestrator (Figure 5): Canon's data-to-instruction
 * translator.
 *
 * Per cycle the orchestrator:
 *   1. evaluates its four condition predicates from the architectural
 *      registers (input meta, state meta, message registers) and the
 *      scratchpad tag buffer,
 *   2. looks up state|msgId|conds in the 6 KB LUT,
 *   3. generates one PE instruction for its row (address generation
 *      from the configured modes), issues it into the row's
 *      instruction pipeline, and
 *   4. applies the side effects: message to the southern orchestrator,
 *      state-meta updates, buffer push/pop, stream/message consumption,
 *      west-edge data injection, and the FSM state transition.
 *
 * If the emitted action pushes south and the message window to the
 * southern orchestrator is full, the orchestrator stalls in place
 * (issues a NOP and re-evaluates next cycle); stall propagation
 * between rows is how load imbalance manifests, which the scratchpad
 * depth then absorbs (Section 6.5 / Figure 17).
 *
 * An OrchPolicy layers scheduling knobs over the kernel microcode:
 * the tag buffer's associative search can be banked (--tag-banks),
 * and the scratchpad flush policy (--spad-flush) can be switched from
 * the paper's eager flush-at-cap to the occupancy-adaptive policy
 * described in orch/policy.hh. Neither changes computed values.
 */

#ifndef CANON_ORCH_ORCHESTRATOR_HH
#define CANON_ORCH_ORCHESTRATOR_HH

#include <deque>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "noc/inst_pipeline.hh"
#include "noc/router.hh"
#include "orch/msg_channel.hh"
#include "orch/policy.hh"
#include "orch/program.hh"
#include "orch/tag_fifo.hh"
#include "orch/token.hh"

namespace canon
{

/** Output bookkeeping record for edge collectors (kernel-defined). */
struct OutRec
{
    std::uint16_t a = 0;
    std::uint16_t b = 0;
};

class Orchestrator final
{
  public:
    /** @p now is the fabric's cycle counter (the stream timestamps). */
    Orchestrator(std::string name, int spad_capacity, const Cycle &now,
                 const OrchPolicy &policy = {});

    // ---- wiring ------------------------------------------------------
    void bindPipeline(InstPipeline *pipe) { pipe_ = pipe; }
    void bindWestChannel(DataChannel *ch) { westChan_ = ch; }
    void bindMsgIn(MsgChannel *ch) { msgIn_ = ch; }
    void bindMsgOut(MsgChannel *ch) { msgOut_ = ch; }
    void bindOutRecQueue(std::deque<OutRec> *q) { outRecs_ = q; }

    // ---- programming (done by the kernel mapper before execution) ----
    void loadProgram(const OrchProgram *prog);
    void setStream(MetaStream stream);

    // ---- queries ------------------------------------------------------
    bool done() const;
    std::uint8_t state() const { return state_; }
    std::uint16_t meta(int i) const { return meta_[i]; }
    const TagFifo &buffer() const { return fifo_; }
    const std::string &name() const { return name_; }

    /** Counter reads for the obs cycle accountant (delta-based
     *  per-cycle classification; see obs/accounting.hh). */
    std::uint64_t stallCyclesValue() const
    {
        return stallCycles_.value();
    }
    std::uint64_t instIssuedValue() const
    {
        return instIssued_.value();
    }

    /** Visit every counter, the tag buffer's included, as (leaf
     *  name, counter). */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        fn("lutLookups", lutLookups_);
        fn("instIssued", instIssued_);
        fn("macIssued", macIssued_);
        fn("stallCycles", stallCycles_);
        fn("stateTransitions", stateTransitions_);
        fn("msgsSent", msgsSent_);
        fn("fwdAhead", fwdAhead_);
        fn("fwdBehind", fwdBehind_);
        fn("spadResidentSum", spadResidentSum_);
        fn("spadCapCycles", spadCapCycles_);
        fifo_.forEachCounter(fn);
    }

    /** All effects stage through channels that commit themselves,
     *  so an orchestrator has no commit phase. */
    void tickCompute();

  private:
    // Predicate/address evaluation is non-const because probing the
    // tag buffer (MsgTagManaged, SpadSearch) is charged work: it
    // mutates the bufferSearches/tagCompares cost counters.
    bool evalPredicate(Predicate p, const MetaToken &token,
                       const OrchMsg &msg, bool msg_valid);
    std::uint8_t condBits(const MetaToken &token, const OrchMsg &msg,
                          bool msg_valid);
    std::uint16_t selValue(ValueSel sel, const MetaToken &token,
                           const OrchMsg &msg) const;
    Addr evalAddr(const AddrMode &m, const MetaToken &token,
                  const OrchMsg &msg);
    void applyMetaUpdate(int reg, const MetaUpdate &u,
                         const MetaToken &token, const OrchMsg &msg);
    bool holdMergeMsg(const MetaToken &token, const OrchMsg &msg);

    std::string name_;
    const OrchProgram *prog_ = nullptr;
    MetaStream stream_;
    TagFifo fifo_;
    const Cycle &now_;
    SpadFlushPolicy flushPolicy_;
    int flushThreshold_; //!< occupancy BufferAtCap asserts at

    // Architectural registers (Figure 5).
    std::uint8_t state_ = 0;
    std::uint16_t meta_[2] = {0, 0};

    /**
     * Last row tag materialized into the buffer; -1 before any push.
     * The adaptive flush policy compares incoming merge-protocol
     * messages against this cursor: a psum for a row beyond it is
     * held in the channel (backpressure) instead of relayed, so the
     * merge happens once the local row cursor catches up.
     */
    std::int32_t rowCursor_ = -1;

    // Wiring.
    InstPipeline *pipe_ = nullptr;
    DataChannel *westChan_ = nullptr;
    MsgChannel *msgIn_ = nullptr;
    MsgChannel *msgOut_ = nullptr;
    std::deque<OutRec> *outRecs_ = nullptr;

    // Statistics.
    Counter lutLookups_;
    Counter instIssued_;
    Counter macIssued_;
    Counter stallCycles_;
    Counter stateTransitions_;
    Counter msgsSent_;
    Counter fwdAhead_;
    Counter fwdBehind_;
    Counter spadResidentSum_; //!< sum of resident rows over cycles
    Counter spadCapCycles_;   //!< cycles pinned at the resident cap
};

} // namespace canon

#endif // CANON_ORCH_ORCHESTRATOR_HH
