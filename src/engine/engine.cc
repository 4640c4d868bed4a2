#include "engine/engine.hh"

#include <algorithm>
#include <thread>

#include "runner/shard.hh"
#include "workloads/models.hh"

namespace canon
{
namespace engine
{

CaseResult
runScenarioCases(const cli::Options &opt)
{
    // ArchSuite simulates only the selected architectures; an empty
    // list means canon only (the Options contract).
    const ArchSuite suite(opt.fabric,
                          opt.archs.empty()
                              ? std::vector<std::string>{"canon"}
                              : opt.archs);
    if (!opt.model.empty())
        return suite.model(opt.sparsitySet
                               ? modelByName(opt.model, opt.sparsity)
                               : modelByName(opt.model),
                           opt.seed);
    // A shape scenario is a one-layer model.
    return suite.run({cli::workloadName(opt.workload), opt.workload,
                      opt.m, opt.k, opt.n, opt.sparsity, opt.window,
                      1.0, opt.nmN, opt.nmM},
                     opt.seed);
}

EngineConfig
makeEngineConfig(const CommonFlags &flags, int default_jobs)
{
    EngineConfig cfg;
    cfg.jobs = flags.jobs > 0 ? flags.jobs : default_jobs;
    cfg.cacheDir = flags.cacheDir;
    cfg.cacheMode = flags.cacheMode;
    return cfg;
}

const char *
forecastName(ScenarioPlan::Forecast f)
{
    switch (f) {
      case ScenarioPlan::Forecast::Hit:
        return "hit";
      case ScenarioPlan::Forecast::Miss:
        return "miss";
      case ScenarioPlan::Forecast::Uncached:
        return "uncached";
    }
    return "?";
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      workers_(config_.jobs > 0
                   ? config_.jobs
                   : static_cast<int>(std::max(
                         1u, std::thread::hardware_concurrency()))),
      pool_(workers_)
{
    if (!config_.cacheDir.empty() &&
        config_.cacheMode != cache::Mode::Off)
        store_.emplace(config_.cacheDir, config_.cacheMode);
}

std::string
Engine::prepare()
{
    std::call_once(prepare_once_, [this] {
        if (store_)
            prepare_error_ = store_->prepare();
    });
    return prepare_error_;
}

std::string
Engine::cacheStatsLine() const
{
    return store_ ? store_->statsLine() : std::string();
}

ResultSet
Engine::rejected(const ScenarioRequest &req) const
{
    ResultSet rs;
    rs.status_ = ResultSet::Status::InvalidRequest;
    rs.error_ = req.error();
    rs.warnings_ = req.warnings();
    rs.shard_ = req.options().common.shard;
    return rs;
}

namespace
{

/**
 * The per-request cache report: hit/miss/store counts attributed to
 * exactly the results in @p results (via the pool's per-job flags),
 * never the store's process-lifetime totals -- under a shared
 * long-lived engine every submission must report its own delta.
 * Cancelled jobs never touched the store, so they count as neither
 * hits nor executed misses.
 */
std::string
perRequestCacheLine(
    const std::vector<runner::ScenarioResult> &results)
{
    cache::CacheStats delta;
    for (const auto &r : results) {
        if (r.cacheHit)
            ++delta.hits;
        else if (!r.cancelled())
            ++delta.misses;
        if (r.cacheStored)
            ++delta.stores;
    }
    return cache::statsLineText(delta);
}

/** The scenarios @p req owns: its shard's slice of the expansion. */
std::vector<runner::SweepJob>
shardJobs(const ScenarioRequest &req)
{
    return runner::shardSlice(req.options().common.shard, req.expand());
}

} // namespace

ResultSet
Engine::run(const ScenarioRequest &req, const ResultCallback &onResult,
            const runner::CancelToken *cancel)
{
    return std::move(runBatch({req}, onResult, cancel).front());
}

std::vector<ResultSet>
Engine::runBatch(const std::vector<ScenarioRequest> &requests,
                 const ResultCallback &onResult,
                 const runner::CancelToken *cancel)
{
    // Validate and expand everything first so one global job list
    // can feed a single pool pass: concurrency then spans request
    // boundaries instead of draining one request at a time. Validate
    // private copies: validation caches into the request's mutable
    // members without synchronization, so a const request shared
    // across threads must never be mutated through here.
    const std::vector<ScenarioRequest> local(requests.begin(),
                                             requests.end());
    std::vector<ResultSet> sets(local.size());
    std::vector<runner::SweepJob> all;
    std::vector<std::size_t> count(local.size(), 0);

    const std::string prepare_error = prepare();
    for (std::size_t r = 0; r < local.size(); ++r) {
        const ScenarioRequest &req = local[r];
        if (!req.validate()) {
            sets[r] = rejected(req);
            continue;
        }
        ResultSet &rs = sets[r];
        rs.warnings_ = req.warnings();
        rs.shard_ = req.options().common.shard;
        if (!prepare_error.empty()) {
            rs.status_ = ResultSet::Status::Failed;
            rs.error_ = prepare_error;
            continue;
        }
        rs.total_jobs_ = req.jobCount();
        rs.single_ =
            req.options().sweepAxes.empty() && rs.shard_.whole();
        std::vector<runner::SweepJob> jobs = shardJobs(req);
        count[r] = jobs.size();
        all.insert(all.end(), std::make_move_iterator(jobs.begin()),
                   std::make_move_iterator(jobs.end()));
    }

    std::vector<runner::ScenarioResult> results =
        pool_.run(all, runScenarioCases, store(), onResult, cancel);

    auto next = results.begin();
    for (std::size_t r = 0; r < local.size(); ++r) {
        ResultSet &rs = sets[r];
        if (!rs.ok())
            continue;
        const auto end = next + static_cast<std::ptrdiff_t>(count[r]);
        rs.results_.assign(std::make_move_iterator(next),
                           std::make_move_iterator(end));
        next = end;
        if (store())
            rs.cache_stats_line_ = perRequestCacheLine(rs.results_);
        const obs::ObsOptions &obs_opt = local[r].options().common.obs;
        if (obs_opt.enabled())
            rs.obs_ = ObsReport::build(obs_opt, rs.results_, store());
    }
    return sets;
}

std::vector<ScenarioPlan>
Engine::plan(const ScenarioRequest &req)
{
    // Private copy, as in runBatch().
    const ScenarioRequest local = req;
    if (!local.validate())
        return {};

    std::vector<ScenarioPlan> plans;
    CaseResult decoded;
    for (auto &job : shardJobs(local)) {
        ScenarioPlan p;
        p.key = cache::scenarioKey(job.options);
        if (!store_) {
            p.forecast = ScenarioPlan::Forecast::Uncached;
        } else {
            // The pool's hit rule, without counting: Write/Refresh
            // modes never read (lookup() returns nothing), and a
            // stored entry is a hit only when acceptCases() takes it.
            const auto payload = store_->lookup(p.key);
            p.forecast = payload && runner::acceptCases(*payload, decoded)
                             ? ScenarioPlan::Forecast::Hit
                             : ScenarioPlan::Forecast::Miss;
        }
        p.job = std::move(job);
        plans.push_back(std::move(p));
    }
    return plans;
}

void
Engine::runJobs(const std::vector<runner::CachedJob> &jobs)
{
    prepare();
    pool_.runCached(jobs, store());
}

} // namespace engine
} // namespace canon
