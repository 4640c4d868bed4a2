/**
 * @file
 * Edge components around the PE array: the output-side EDDO memory
 * movers that assemble result matrices, the north-edge feeder that
 * streams vectors into columns, and a sink that drains unused edge
 * channels (data "falling off" the array edge). Each acts in the
 * compute phase only: the channels it pops and pushes commit
 * themselves.
 */

#ifndef CANON_CORE_COLLECTORS_HH
#define CANON_CORE_COLLECTORS_HH

#include <deque>
#include <vector>

#include "noc/router.hh"
#include "orch/msg_channel.hh"
#include "orch/orchestrator.hh"
#include "sparse/matrix.hh"

namespace canon
{

/** Drains any channel bound to it, one element per channel per cycle. */
class EdgeSink final
{
  public:
    void add(DataChannel *ch) { chans_.push_back(ch); }

    void
    tickCompute()
    {
        for (auto *ch : chans_)
            if (!ch->empty())
                ch->pop();
    }

  private:
    std::vector<DataChannel *> chans_;
};

/**
 * South-edge collector for row-dataflow kernels (SpMM/GEMM/N:M).
 *
 * The bottom orchestrator's PSUM(rid) message announces that one
 * flushed vector per column is in flight; the collector accumulates
 * each arriving vector into output row `rid`. Accumulation (rather
 * than assignment) implements the asynchronous reduction of
 * Listing 3: several psums for the same output row may arrive when
 * upstream rows bypassed each other under load imbalance.
 */
class SouthCollector final
{
  public:
    SouthCollector(MsgChannel *msgs, std::vector<DataChannel *> chans,
                   WordMatrix *out);

    bool pendingEmpty() const;

    /**
     * Collect column 0 only, for a folded run (CanonFabric::
     * runForProfile), in which no other column's vector arrives. The
     * other columns' values are never computed, so a psum for a row
     * outside the output then panics whatever its value.
     */
    void foldToColumnZero();

    void tickCompute();

  private:
    MsgChannel *msgs_;
    std::vector<DataChannel *> chans_;
    std::vector<std::deque<std::uint16_t>> expect_; // per column: rids
    WordMatrix *out_;
    bool folded_ = false;
};

/**
 * East-edge collector for SDDMM: one scalar result per OutRec
 * {a = output row m, b = local output column}; the edge logic reduces
 * the 4 psum lanes to the scalar C[m][rowBase + b].
 */
class EastCollector final
{
  public:
    EastCollector(WordMatrix *out, int cols_per_row);

    /** Attach PE row @p row: its east channel and bookkeeping queue. */
    void addRow(int row, DataChannel *ch, std::deque<OutRec> *recs);

    bool pendingEmpty() const;

    void tickCompute();

  private:
    struct RowPort
    {
        int row;
        DataChannel *ch;
        std::deque<OutRec> *recs;
    };

    WordMatrix *out_;
    int colsPerRow_;
    std::vector<RowPort> ports_;
};

/**
 * North-edge feeder: the input-side EDDO mover for kernels that stream
 * dense vectors down the columns (SDDMM's A matrix).
 *
 * Steps are pushed synchronously -- one vector into every column in
 * the same cycle, announced by a kMsgAVec message to the top
 * orchestrator -- so the message window provides flow control for the
 * whole top edge: when the top row falls behind, the feeder pauses.
 */
class NorthFeeder final
{
  public:
    NorthFeeder(std::vector<DataChannel *> chans, MsgChannel *announce)
        : chans_(std::move(chans)), announce_(announce)
    {
    }

    /** feed[step][col]: the vector entering column col at step. */
    void
    setFeed(std::vector<std::vector<Vec4>> feed)
    {
        feed_ = std::move(feed);
        pos_ = 0;
    }

    bool drained() const { return pos_ >= feed_.size(); }

    void tickCompute();

  private:
    std::vector<DataChannel *> chans_;
    MsgChannel *announce_;
    std::vector<std::vector<Vec4>> feed_;
    std::size_t pos_ = 0;
};

/** Drains a message channel nobody else consumes (bottom-edge AVec). */
class MsgSink final
{
  public:
    explicit MsgSink(MsgChannel *ch) : ch_(ch) {}

    void
    tickCompute()
    {
        if (ch_ && !ch_->empty())
            ch_->pop();
    }

  private:
    MsgChannel *ch_;
};

} // namespace canon

#endif // CANON_CORE_COLLECTORS_HH
