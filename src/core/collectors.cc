#include "core/collectors.hh"

namespace canon
{

// ---------------------------------------------------------------------
// SouthCollector
// ---------------------------------------------------------------------

SouthCollector::SouthCollector(MsgChannel *msgs,
                               std::vector<DataChannel *> chans,
                               WordMatrix *out)
    : msgs_(msgs), chans_(std::move(chans)), expect_(chans_.size()),
      out_(out)
{
    panicIf(!msgs_ || !out_, "SouthCollector: null wiring");
}

bool
SouthCollector::pendingEmpty() const
{
    if (!msgs_->empty())
        return false;
    for (const auto &q : expect_)
        if (!q.empty())
            return false;
    for (const auto *ch : chans_)
        if (!ch->empty())
            return false;
    return true;
}

void
SouthCollector::foldToColumnZero()
{
    chans_.resize(1);
    expect_.resize(1);
    folded_ = true;
}

void
SouthCollector::tickCompute()
{
    // One message per cycle fans out to one expected vector per column.
    if (!msgs_->empty()) {
        const OrchMsg m = msgs_->front();
        msgs_->pop();
        panicIf(m.id != kMsgPsum,
                "SouthCollector: unexpected message id ",
                static_cast<int>(m.id));
        for (auto &q : expect_)
            q.push_back(m.value);
    }

    // One vector per column per cycle.
    for (std::size_t c = 0; c < chans_.size(); ++c) {
        auto *ch = chans_[c];
        if (ch->empty())
            continue;
        panicIf(expect_[c].empty(),
                "SouthCollector: vector with no announcing message at "
                "column ", c);
        const int rid = expect_[c].front();
        expect_[c].pop_front();
        const Vec4 v = ch->front();
        ch->pop();
        for (int l = 0; l < kSimdWidth; ++l) {
            const int col = static_cast<int>(c) * kSimdWidth + l;
            if (rid < out_->rows() && col < out_->cols())
                out_->at(rid, col) += v[l];
            else
                panicIf(v[l] != 0,
                        "SouthCollector: nonzero psum outside the "
                        "output shape at (", rid, ",", col, ")");
        }
        panicIf(folded_ && rid >= out_->rows(),
                "SouthCollector: psum for row ", rid,
                " outside the output shape (folded run: the other "
                "columns' values are unknown)");
    }
}

// ---------------------------------------------------------------------
// NorthFeeder
// ---------------------------------------------------------------------

void
NorthFeeder::tickCompute()
{
    if (pos_ >= feed_.size())
        return;
    for (auto *ch : chans_)
        if (!ch->canPush())
            return;
    if (announce_ && !announce_->canPush())
        return;

    const auto &step = feed_[pos_];
    panicIf(step.size() != chans_.size(),
            "NorthFeeder: step width ", step.size(), " != columns ",
            chans_.size());
    for (std::size_t c = 0; c < chans_.size(); ++c)
        chans_[c]->push(step[c]);
    if (announce_)
        announce_->push({kMsgAVec, static_cast<std::uint16_t>(pos_)});
    ++pos_;
}

// ---------------------------------------------------------------------
// EastCollector
// ---------------------------------------------------------------------

EastCollector::EastCollector(WordMatrix *out, int cols_per_row)
    : out_(out), colsPerRow_(cols_per_row)
{
    panicIf(!out_, "EastCollector: null output");
}

void
EastCollector::addRow(int row, DataChannel *ch, std::deque<OutRec> *recs)
{
    panicIf(!ch || !recs, "EastCollector: null row wiring");
    ports_.push_back({row, ch, recs});
}

bool
EastCollector::pendingEmpty() const
{
    for (const auto &p : ports_)
        if (!p.ch->empty() || !p.recs->empty())
            return false;
    return true;
}

void
EastCollector::tickCompute()
{
    for (auto &p : ports_) {
        if (p.ch->empty())
            continue;
        panicIf(p.recs->empty(),
                "EastCollector: vector with no bookkeeping record at "
                "row ", p.row);
        const OutRec rec = p.recs->front();
        p.recs->pop_front();
        const Vec4 v = p.ch->front();
        p.ch->pop();
        const int m = rec.a;
        const int n = p.row * colsPerRow_ + rec.b;
        panicIf(m >= out_->rows() || n >= out_->cols(),
                "EastCollector: result (", m, ",", n,
                ") outside the output shape");
        out_->at(m, n) += v.hsum();
    }
}

} // namespace canon
