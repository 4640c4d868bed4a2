#include "core/fabric.hh"

#include "common/rng.hh"
#include "obs/collector.hh"
#include "obs/sampler.hh"

namespace canon
{

CanonFabric::~CanonFabric() = default;

CanonFabric::CanonFabric(const CanonConfig &cfg,
                         std::uint64_t shuffle_seed)
    : cfg_(cfg), stats_("fabric"), shuffleSeed_(shuffle_seed)
{
    fatalIf(cfg_.rows <= 0 || cfg_.cols <= 0,
            "CanonFabric: non-positive array shape");
    fatalIf(cfg_.spadEntries <= 0 ||
                cfg_.spadEntries > addrspace::kSpadSize,
            "CanonFabric: scratchpad depth ", cfg_.spadEntries,
            " unsupported");
    fatalIf(cfg_.dmemSlots <= 0 || cfg_.dmemSlots > addrspace::kDmemSize,
            "CanonFabric: dmem slots ", cfg_.dmemSlots, " unsupported");
    fatalIf(cfg_.tagBanks <= 0,
            "CanonFabric: tag banks must be positive, got ",
            cfg_.tagBanks);

    // Channels first so PEs can bind to them.
    vert_.resize(cfg_.rows + 1);
    for (int r = 0; r <= cfg_.rows; ++r) {
        for (int c = 0; c < cfg_.cols; ++c) {
            vert_[r].push_back(std::make_unique<DataChannel>(
                kChannelDepth,
                "vert" + std::to_string(r) + "_" + std::to_string(c)));
        }
    }
    horiz_.resize(cfg_.rows);
    for (int r = 0; r < cfg_.rows; ++r) {
        for (int c = 0; c <= cfg_.cols; ++c) {
            horiz_[r].push_back(std::make_unique<DataChannel>(
                kChannelDepth,
                "horiz" + std::to_string(r) + "_" + std::to_string(c)));
        }
    }
    for (int r = 0; r <= cfg_.rows; ++r)
        msg_.push_back(std::make_unique<MsgChannel>(
            "msg" + std::to_string(r)));

    outRecs_.resize(cfg_.rows);

    // PEs.
    for (int r = 0; r < cfg_.rows; ++r) {
        for (int c = 0; c < cfg_.cols; ++c) {
            auto &pe_stats = stats_.child(
                "pe" + std::to_string(r) + "_" + std::to_string(c));
            auto pe = std::make_unique<Pe>(PeGeometry{r, c},
                                           cfg_.dmemSlots,
                                           cfg_.spadEntries, pe_stats);
            pe->router().bindIn(Dir::North, vert_[r][c].get());
            pe->router().bindOut(Dir::South, vert_[r + 1][c].get());
            pe->router().bindIn(Dir::West, horiz_[r][c].get());
            pe->router().bindOut(Dir::East, horiz_[r][c + 1].get());
            pes_.push_back(std::move(pe));
        }
    }

    // Per-row instruction pipelines and orchestrators.
    for (int r = 0; r < cfg_.rows; ++r) {
        pipes_.push_back(std::make_unique<InstPipeline>(cfg_.cols));
        auto &orch_stats = stats_.child("orch" + std::to_string(r));
        auto orch = std::make_unique<Orchestrator>(
            "orch" + std::to_string(r), cfg_.spadEntries, orch_stats,
            now_, OrchPolicy{cfg_.tagBanks, cfg_.spadFlush});
        orch->bindPipeline(pipes_.back().get());
        orch->bindWestChannel(horiz_[r][0].get());
        orch->bindMsgIn(msg_[r].get());
        orch->bindMsgOut(msg_[r + 1].get());
        std::vector<DataChannel *> south;
        for (int c = 0; c < cfg_.cols; ++c)
            south.push_back(vert_[r + 1][c].get());
        orch->bindSouthData(std::move(south));
        orch->bindOutRecQueue(&outRecs_[r]);
        orchs_.push_back(std::move(orch));
        for (int c = 0; c < cfg_.cols; ++c)
            pes_[peIndex(r, c)]->bindPipeline(pipes_.back().get());
    }

    // Tick order. Order within a phase is irrelevant for results
    // (two-phase ticks); a nonzero shuffle seed permutes it to prove
    // that.
    for (auto &o : orchs_)
        orchTicks_.push_back(o.get());
    for (auto &p : pes_)
        peTicks_.push_back(p.get());
    for (auto &pl : pipes_)
        pipeTicks_.push_back(pl.get());
    for (auto &m : msg_)
        msgTicks_.push_back(m.get());
    for (auto *chans : {&vert_, &horiz_})
        for (auto &row : *chans)
            for (auto &ch : row)
                dataTicks_.push_back(ch.get());
    computeGroups_ = {Group::Orchestrators, Group::Pes};
    commitGroups_ = {Group::Pes, Group::Pipelines, Group::MsgChannels,
                     Group::DataChannels};
    if (shuffleSeed_ != 0) {
        Rng rng(shuffleSeed_);
        rng.shuffle(orchTicks_);
        rng.shuffle(peTicks_);
        rng.shuffle(pipeTicks_);
        rng.shuffle(msgTicks_);
        rng.shuffle(dataTicks_);
        rng.shuffle(computeGroups_);
        rng.shuffle(commitGroups_);
    }
}

Pe &
CanonFabric::pe(int r, int c)
{
    panicIf(r < 0 || r >= cfg_.rows || c < 0 || c >= cfg_.cols,
            "CanonFabric::pe(", r, ",", c, ") out of range");
    return *pes_[peIndex(r, c)];
}

Orchestrator &
CanonFabric::orch(int r)
{
    panicIf(r < 0 || r >= cfg_.rows, "CanonFabric::orch(", r,
            ") out of range");
    return *orchs_[r];
}

const Orchestrator &
CanonFabric::orch(int r) const
{
    panicIf(r < 0 || r >= cfg_.rows, "CanonFabric::orch(", r,
            ") out of range");
    return *orchs_[r];
}

void
CanonFabric::load(KernelMapping mapping)
{
    fatalIf(loaded_, "CanonFabric: one fabric instance runs one kernel; "
                     "construct a fresh fabric per execution");
    fatalIf(!mapping.program, "CanonFabric: mapping without a program");
    fatalIf(static_cast<int>(mapping.rowStreams.size()) > cfg_.rows,
            "CanonFabric: more row streams than rows");
    mapping_ = std::move(mapping);
    loaded_ = true;

    out_ = WordMatrix(mapping_.outRows, mapping_.outCols);

    for (int r = 0; r < cfg_.rows; ++r) {
        orchs_[r]->loadProgram(mapping_.program.get());
        if (r < static_cast<int>(mapping_.rowStreams.size()))
            orchs_[r]->setStream(mapping_.rowStreams[r]);
    }

    // Data placement (the second IR of Figure 6).
    for (std::size_t r = 0; r < mapping_.dmemImage.size(); ++r) {
        for (std::size_t c = 0; c < mapping_.dmemImage[r].size(); ++c) {
            const auto &slots = mapping_.dmemImage[r][c];
            auto &pe_ref = pe(static_cast<int>(r), static_cast<int>(c));
            panicIf(static_cast<int>(slots.size()) >
                        pe_ref.dmem().slots(),
                    "CanonFabric: dmem image overflows PE (", r, ",", c,
                    ")");
            for (std::size_t s = 0; s < slots.size(); ++s)
                pe_ref.dmem().poke(static_cast<int>(s), slots[s]);
        }
    }

    // Edge movers and collectors: compute-only groups, ticked after
    // the constructor's and permuted among themselves.
    std::vector<Group> edge;
    sink_ = std::make_unique<EdgeSink>();
    if (mapping_.collector == CollectorKind::South) {
        std::vector<DataChannel *> bottom;
        for (int c = 0; c < cfg_.cols; ++c)
            bottom.push_back(vert_[cfg_.rows][c].get());
        southCollector_ = std::make_unique<SouthCollector>(
            msg_[cfg_.rows].get(), std::move(bottom), &out_);
        edge.push_back(Group::SouthCollector);
        // East edge only carries forwarded operands: discard.
        for (int r = 0; r < cfg_.rows; ++r)
            sink_->add(horiz_[r][cfg_.cols].get());
    } else {
        eastCollector_ = std::make_unique<EastCollector>(
            &out_, mapping_.eastColsPerRow);
        for (int r = 0; r < cfg_.rows; ++r)
            eastCollector_->addRow(r, horiz_[r][cfg_.cols].get(),
                                   &outRecs_[r]);
        edge.push_back(Group::EastCollector);
        // South edge carries pass-through streams: discard, and drain
        // the bottom message channel.
        for (int c = 0; c < cfg_.cols; ++c)
            sink_->add(vert_[cfg_.rows][c].get());
        msgSink_ = std::make_unique<MsgSink>(msg_[cfg_.rows].get());
        edge.push_back(Group::MsgSink);
    }
    edge.push_back(Group::EdgeSink);

    if (!mapping_.northFeed.empty()) {
        std::vector<DataChannel *> top;
        for (int c = 0; c < cfg_.cols; ++c)
            top.push_back(vert_[0][c].get());
        feeder_ = std::make_unique<NorthFeeder>(std::move(top),
                                                msg_[0].get());
        feeder_->setFeed(mapping_.northFeed);
        edge.push_back(Group::NorthFeeder);
    }
    if (shuffleSeed_ != 0) {
        Rng rng(shuffleSeed_ + 1);
        rng.shuffle(edge);
    }
    computeGroups_.insert(computeGroups_.end(), edge.begin(), edge.end());
}

bool
CanonFabric::channelsDrained() const
{
    for (const auto &row : vert_)
        for (const auto &ch : row)
            if (!ch->empty())
                return false;
    for (const auto &row : horiz_)
        for (const auto &ch : row)
            if (!ch->empty())
                return false;
    for (const auto &m : msg_)
        if (!m->empty())
            return false;
    return true;
}

bool
CanonFabric::done() const
{
    for (const auto &o : orchs_)
        if (!o->done())
            return false;
    for (const auto &p : pipes_)
        if (!p->drained())
            return false;
    for (const auto &p : pes_)
        if (!p->idle())
            return false;
    if (feeder_ && !feeder_->drained())
        return false;
    if (southCollector_ && !southCollector_->pendingEmpty())
        return false;
    if (eastCollector_ && !eastCollector_->pendingEmpty())
        return false;
    return channelsDrained();
}

std::unique_ptr<obs::CycleAccountant>
CanonFabric::makeAccountant() const
{
    std::vector<const Orchestrator *> orchs;
    for (const auto &o : orchs_)
        orchs.push_back(o.get());
    std::vector<const Pe *> pes;
    for (const auto &p : pes_)
        pes.push_back(p.get());
    std::vector<const InstPipeline *> pipes;
    for (const auto &p : pipes_)
        pipes.push_back(p.get());
    std::vector<const DataChannel *> vert;
    for (const auto &row : vert_)
        for (const auto &ch : row)
            vert.push_back(ch.get());
    std::vector<const DataChannel *> horiz;
    for (const auto &row : horiz_)
        for (const auto &ch : row)
            horiz.push_back(ch.get());
    std::vector<const MsgChannel *> msgs;
    for (const auto &m : msg_)
        msgs.push_back(m.get());
    return std::make_unique<obs::CycleAccountant>(
        std::move(orchs), std::move(pes), std::move(pipes),
        std::move(vert), std::move(horiz), std::move(msgs));
}

void
CanonFabric::step()
{
    for (const Group g : computeGroups_) {
        switch (g) {
          case Group::Orchestrators:
            for (auto *o : orchTicks_)
                o->tickCompute();
            break;
          case Group::Pes:
            for (auto *p : peTicks_)
                p->tickCompute();
            break;
          case Group::SouthCollector:
            southCollector_->tickCompute();
            break;
          case Group::EastCollector:
            eastCollector_->tickCompute();
            break;
          case Group::MsgSink:
            msgSink_->tickCompute();
            break;
          case Group::EdgeSink:
            sink_->tickCompute();
            break;
          case Group::NorthFeeder:
            feeder_->tickCompute();
            break;
          default: // not enlisted in the compute phase
            break;
        }
    }
    for (const Group g : commitGroups_) {
        switch (g) {
          case Group::Pes:
            for (auto *p : peTicks_)
                p->tickCommit();
            break;
          case Group::Pipelines:
            for (auto *p : pipeTicks_)
                p->tickCommit();
            break;
          case Group::MsgChannels:
            for (auto *m : msgTicks_)
                m->tickCommit();
            break;
          case Group::DataChannels:
            for (auto *ch : dataTicks_)
                ch->commit();
            break;
          case Group::Probe:
            probe_->tickCommit();
            break;
          default: // not enlisted in the commit phase
            break;
        }
    }
    ++now_;
}

Cycle
CanonFabric::run(Cycle max_cycles)
{
    fatalIf(!loaded_, "CanonFabric::run: no kernel loaded");
    obs::Collector *col = obs::current();
    if (col && (col->sampling() || col->accounting()) && !probe_) {
        probe_ = std::make_unique<obs::CycleProbe>(
            col->options().sampleEvery,
            col->sampling() ? std::make_unique<obs::CycleSampler>(stats_)
                            : nullptr,
            col->accounting() ? makeAccountant() : nullptr);
        commitGroups_.push_back(Group::Probe);
    }
    const Cycle start = now_;
    while (!done()) {
        panicIf(now_ - start >= max_cycles,
                "CanonFabric watchdog: no completion after ", max_cycles,
                " cycles");
        step();
    }
    const Cycle elapsed = now_ - start;
    if (col) {
        obs::SeriesSet series;
        obs::AccountingSet accounting;
        if (probe_) {
            probe_->captureFinal();
            series = probe_->takeSeries();
            accounting = probe_->takeAccounting();
        }
        col->recordFabricRun(stats_, elapsed, std::move(series),
                             std::move(accounting));
    }
    return elapsed;
}

Cycle
CanonFabric::configureSpatial(
    const std::vector<std::vector<Instruction>> &insts)
{
    fatalIf(loaded_, "CanonFabric: spatial mode needs a fresh fabric");
    fatalIf(static_cast<int>(insts.size()) != cfg_.rows,
            "configureSpatial: need one instruction row per PE row");
    for (const auto &row : insts)
        fatalIf(static_cast<int>(row.size()) != cfg_.cols,
                "configureSpatial: need one instruction per column");
    spatial_ = true;

    // Configuration phase: PEs inert, instructions shift into place.
    // Column c's instruction is issued at cycle 3*(cols-1-c) so all
    // arrive at their taps simultaneously.
    for (auto &p : pes_)
        p->setMode(PeMode::Config);
    const Cycle start = now_;
    const int horizon = kIssueStagger * (cfg_.cols - 1) + 1;
    for (int t = 0; t < horizon; ++t) {
        if (t % kIssueStagger == 0) {
            const int c = cfg_.cols - 1 - t / kIssueStagger;
            if (c >= 0) {
                for (int r = 0; r < cfg_.rows; ++r)
                    pipes_[r]->issue(insts[r][c]);
            }
        }
        step();
    }
    for (auto &p : pipes_)
        p->freeze(true);
    for (auto &p : pes_)
        p->setMode(PeMode::Spatial);
    return now_ - start;
}

void
CanonFabric::pushWest(int r, const Vec4 &v)
{
    panicIf(r < 0 || r >= cfg_.rows, "pushWest: bad row");
    horiz_[r][0]->push(v);
}

std::optional<Vec4>
CanonFabric::popEast(int r)
{
    panicIf(r < 0 || r >= cfg_.rows, "popEast: bad row");
    auto &ch = *horiz_[r][cfg_.cols];
    if (ch.empty())
        return std::nullopt;
    Vec4 v = ch.front();
    ch.pop();
    return v;
}

ExecutionProfile
CanonFabric::profile(const std::string &workload) const
{
    ExecutionProfile p;
    p.arch = "canon";
    p.workload = workload;
    p.cycles = now_;
    p.peCount = static_cast<std::uint64_t>(cfg_.numPes());
    p.add("laneMacs", stats_.sumCounter("macOps"));
    p.add("aluOps", stats_.sumCounter("aluOps"));
    p.add("dmemReads", stats_.sumCounter("dmemReads"));
    p.add("dmemWrites", stats_.sumCounter("dmemWrites"));
    p.add("spadReads", stats_.sumCounter("spadReads"));
    p.add("spadWrites", stats_.sumCounter("spadWrites"));
    p.add("routerHops", stats_.sumCounter("routerHops"));
    p.add("regReads", stats_.sumCounter("regReads"));
    p.add("regWrites", stats_.sumCounter("regWrites"));
    p.add("lutLookups", stats_.sumCounter("lutLookups"));
    p.add("bufferSearches", stats_.sumCounter("bufferSearches"));
    p.add("tagCompares", stats_.sumCounter("tagCompares"));
    p.add("spadResidentSum", stats_.sumCounter("spadResidentSum"));
    p.add("spadCapCycles", stats_.sumCounter("spadCapCycles"));
    p.add("stateTransitions", stats_.sumCounter("stateTransitions"));
    p.add("orchCycles",
          static_cast<std::uint64_t>(cfg_.rows) * now_);
    // Every issued instruction traverses the whole row's dedicated
    // instruction NoC.
    p.add("instHops", stats_.sumCounter("instIssued") *
                          static_cast<std::uint64_t>(cfg_.cols));
    return p;
}

} // namespace canon
