#include "obs/accounting.hh"

#include <utility>

#include "common/logging.hh"
#include "noc/inst_pipeline.hh"
#include "orch/orchestrator.hh"
#include "pe/pe.hh"

namespace canon
{
namespace obs
{

namespace
{

const char *const kCatNames[kCycleCatCount] = {
    "compute",
    "stall_upstream_empty",
    "stall_downstream_backpressure",
    "tag_search",
    "drain",
    "idle",
};

} // namespace

const char *
cycleCatName(int cat)
{
    if (cat < 0 || cat >= kCycleCatCount)
        return "?";
    return kCatNames[cat];
}

CycleAccountant::CycleAccountant(
    std::vector<const Orchestrator *> orchs,
    std::vector<const Pe *> pes,
    std::vector<const InstPipeline *> pipes,
    std::vector<const DataChan *> vert,
    std::vector<const DataChan *> horiz,
    std::vector<const MsgChannel *> msgs)
    : orchs_(std::move(orchs)), pes_(std::move(pes)),
      pipes_(std::move(pipes)), vert_(std::move(vert)),
      horiz_(std::move(horiz)), msgs_(std::move(msgs)),
      points_(kCycleCatCount + 1)
{
    panicIf(orchs_.empty() && pes_.empty() && pipes_.empty(),
            "CycleAccountant: nothing to observe");
    accounts_.resize(orchs_.size() + pes_.size() + pipes_.size());
    prevOrchStall_.resize(orchs_.size(), 0);
    prevOrchInst_.resize(orchs_.size(), 0);
    prevOrchSearches_.resize(orchs_.size(), 0);
    prevOrchCompares_.resize(orchs_.size(), 0);
    prevPeBusy_.resize(pes_.size(), 0);
    histTagDepth_.resize(orchs_.size());
    histSearchLen_.resize(orchs_.size());
}

void
CycleAccountant::classify(std::size_t comp, CycleCat cat)
{
    ++accounts_[comp][static_cast<std::size_t>(cat)];
}

void
CycleAccountant::observe()
{
    // Exactly one category per component per cycle: the sum-to-cycles
    // invariant holds by construction.
    std::size_t comp = 0;
    for (std::size_t i = 0; i < orchs_.size(); ++i, ++comp) {
        const Orchestrator &o = *orchs_[i];
        const std::uint64_t stall = o.stallCyclesValue();
        const std::uint64_t inst = o.instIssuedValue();
        const std::uint64_t searches = o.buffer().searchCount();
        const std::uint64_t compares = o.buffer().compareCount();
        const std::uint64_t d_stall = stall - prevOrchStall_[i];
        const std::uint64_t d_inst = inst - prevOrchInst_[i];
        const std::uint64_t d_searches = searches - prevOrchSearches_[i];
        const std::uint64_t d_compares = compares - prevOrchCompares_[i];
        prevOrchStall_[i] = stall;
        prevOrchInst_[i] = inst;
        prevOrchSearches_[i] = searches;
        prevOrchCompares_[i] = compares;

        // Priority order resolves the (rare) overlaps: a done
        // orchestrator's predicates may still probe the buffer, and a
        // computing cycle usually probed the buffer to decide.
        if (o.done())
            classify(comp, CycleCat::Idle);
        else if (d_stall > 0)
            classify(comp, CycleCat::StallDownstreamBackpressure);
        else if (d_inst > 0)
            classify(comp, CycleCat::Compute);
        else if (d_searches > 0)
            classify(comp, CycleCat::TagSearch);
        else
            classify(comp, CycleCat::StallUpstreamEmpty);

        // Search length is a per-event measure, recorded on every
        // cycle that actually searched (mean compares per probe).
        if (d_searches > 0)
            histSearchLen_[i].record(d_compares / d_searches);
    }
    for (std::size_t i = 0; i < pes_.size(); ++i, ++comp) {
        const Pe &p = *pes_[i];
        const std::uint64_t busy = p.busyCyclesValue();
        const std::uint64_t d_busy = busy - prevPeBusy_[i];
        prevPeBusy_[i] = busy;
        const bool row_done = static_cast<std::size_t>(p.row()) <
                                  orchs_.size() &&
                              orchs_[static_cast<std::size_t>(
                                         p.row())]
                                  ->done();
        if (d_busy == 0)
            classify(comp, CycleCat::Idle);
        else if (row_done)
            classify(comp, CycleCat::Drain);
        else
            classify(comp, CycleCat::Compute);
    }
    for (std::size_t i = 0; i < pipes_.size(); ++i, ++comp) {
        const bool row_done =
            i < orchs_.size() && orchs_[i]->done();
        if (pipes_[i]->drained())
            classify(comp, CycleCat::Idle);
        else if (row_done)
            classify(comp, CycleCat::Drain);
        else
            classify(comp, CycleCat::Compute);
    }
}

void
CycleAccountant::captureHistograms()
{
    for (const DataChan *ch : vert_)
        histVert_.record(ch->size());
    for (const DataChan *ch : horiz_)
        histHoriz_.record(ch->size());
    for (const MsgChannel *m : msgs_)
        histMsg_.record(m->size());
    for (std::size_t i = 0; i < orchs_.size(); ++i)
        histTagDepth_[i].record(
            static_cast<std::uint64_t>(orchs_[i]->buffer().size()));
}

void
CycleAccountant::captureSeries(std::uint64_t cycle)
{
    std::uint64_t accounted = 0;
    for (int c = 0; c < kCycleCatCount; ++c) {
        std::uint64_t sum = 0;
        for (const auto &acc : accounts_)
            sum += acc[static_cast<std::size_t>(c)];
        points_[static_cast<std::size_t>(c)].push_back({cycle, sum});
        accounted += sum;
    }
    points_[kCycleCatCount].push_back({cycle, accounted});
}

AccountingSet
CycleAccountant::take(std::uint64_t cycles) const
{
    AccountingSet out;
    out.cycles = cycles;
    out.components.reserve(accounts_.size());
    std::size_t comp = 0;
    for (const Orchestrator *o : orchs_) {
        ComponentAccount a;
        a.component = o->name();
        a.cycles = accounts_[comp++];
        out.components.push_back(std::move(a));
    }
    for (const Pe *p : pes_) {
        ComponentAccount a;
        a.component = "pe" + std::to_string(p->row()) + "_" +
                      std::to_string(p->col());
        a.cycles = accounts_[comp++];
        out.components.push_back(std::move(a));
    }
    for (std::size_t i = 0; i < pipes_.size(); ++i) {
        ComponentAccount a;
        a.component = "pipe" + std::to_string(i);
        a.cycles = accounts_[comp++];
        out.components.push_back(std::move(a));
    }

    auto hist = [&out](const char *metric, std::string component,
                       const Histogram &h) {
        out.histograms.push_back(
            {metric, std::move(component), h});
    };
    hist("occupancy", "vert", histVert_);
    hist("occupancy", "horiz", histHoriz_);
    hist("occupancy", "msg", histMsg_);
    for (std::size_t i = 0; i < orchs_.size(); ++i)
        hist("tagDepth", orchs_[i]->name(), histTagDepth_[i]);
    for (std::size_t i = 0; i < orchs_.size(); ++i)
        hist("searchLen", orchs_[i]->name(), histSearchLen_[i]);
    return out;
}

SeriesSet
CycleAccountant::takeSeries()
{
    SeriesSet out;
    out.series.reserve(points_.size());
    for (std::size_t c = 0; c < points_.size(); ++c) {
        Series s;
        s.metric = std::string("acct.") +
                   (c < kCycleCatCount
                        ? cycleCatName(static_cast<int>(c))
                        : "accounted");
        s.component = "fabric";
        s.points = std::move(points_[c]);
        points_[c].clear();
        out.series.push_back(std::move(s));
    }
    return out;
}

} // namespace obs
} // namespace canon
