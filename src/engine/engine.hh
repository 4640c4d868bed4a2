/**
 * @file
 * canon::engine -- the one typed façade every entry point runs
 * through.
 *
 * An Engine owns the execution machinery that canonsim, the 13
 * figure benches, the tests, and embedders used to hand-wire
 * individually: the runner::ScenarioPool worker pool, the optional
 * cache::ResultStore. The workload, model and architecture
 * vocabulary is the CLI's tables (cli/options.hh). Callers submit
 * ScenarioRequests -- every option in its CLI spelling -- and get
 * ResultSets back:
 *
 *     engine::Engine eng(engine::EngineConfig{.jobs = 4});
 *     auto rs = eng.run(engine::ScenarioRequest()
 *                           .set("workload", "spmm")
 *                           .set("m", "256")
 *                           .set("sparsity", "0.7")
 *                           .archs({archName(Arch::Canon),
 *                                   archName(Arch::Zed)}));
 *
 * Determinism contract (inherited from the runner layer): results
 * land at their expansion index, so a ResultSet -- and any table or
 * CSV rendered from it -- is byte-identical for every worker count;
 * the streaming overload delivers results in that same index order.
 *
 * Thread-safety: one Engine may be shared across threads after
 * construction. The run()/runBatch()/runJobs()/plan() entry points
 * spawn their own workers and only touch internally synchronized
 * engine state: the store's atomic counters, and the lazy
 * cache-directory preparation (a std::call_once). They are non-const
 * because they own that lazily prepared state.
 */

#ifndef CANON_ENGINE_ENGINE_HH
#define CANON_ENGINE_ENGINE_HH

#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/store.hh"
#include "engine/common_flags.hh"
#include "engine/request.hh"
#include "engine/result_set.hh"
#include "runner/cancel.hh"
#include "runner/pool.hh"

namespace canon
{
namespace engine
{

struct EngineConfig
{
    /** Worker threads; <= 0 means hardware concurrency. */
    int jobs = 0;

    /**
     * Result-cache directory; empty (or Mode::Off) runs uncached. The
     * initializer lets EngineConfig{.jobs = N} omit it under -Wextra.
     */
    std::string cacheDir{};
    cache::Mode cacheMode = cache::Mode::ReadWrite;
};

/**
 * EngineConfig from parsed CommonFlags. @p default_jobs fills in
 * when --jobs was absent (canonsim passes 1, benches their declared
 * default); 0 falls through to hardware concurrency.
 */
EngineConfig makeEngineConfig(const CommonFlags &flags,
                              int default_jobs = 0);

/**
 * Streaming result consumer: called once per scenario, in expansion
 * order, once the scenario and every lower-indexed one have finished.
 * It runs only on the thread that called run() or runBatch(), while
 * the other workers keep executing later scenarios: it may block
 * (that holds the calling thread alone) but must not re-enter the
 * engine. A throw stops delivery and leaves the call.
 */
using ResultCallback =
    std::function<void(const runner::ScenarioResult &)>;

/**
 * One entry of a dry-run plan: the scenario, its cache identity, and
 * what the engine predicts the cache will do with it.
 */
struct ScenarioPlan
{
    runner::SweepJob job;
    cache::ScenarioKey key;

    enum class Forecast
    {
        Hit,      //!< in the store, or stored by an earlier scenario
        Miss,     //!< the scenario would execute (and maybe store)
        Uncached, //!< no store configured; always executes
    };
    Forecast forecast = Forecast::Uncached;
};

/** Plan forecast as the word dry-run reports print. */
const char *forecastName(ScenarioPlan::Forecast f);

/** The scenarios of @p plans that would simulate: every one not
 *  forecast a hit. */
std::size_t missCount(const std::vector<ScenarioPlan> &plans);

class Engine
{
  public:
    explicit Engine(EngineConfig config = {});

    /** Resolved worker-thread count (never 0). */
    int workers() const { return workers_; }

    /**
     * Create the cache directory if this engine is cached. Returns an
     * empty string on success, otherwise the error message. Runs
     * once (thread-safely); called implicitly by the run entry
     * points, or directly to report a bad cache directory before
     * submitting work.
     */
    std::string prepare();

    /** The result store, or nullptr for an uncached engine. */
    const cache::ResultStore *store() const
    {
        return store_ ? &*store_ : nullptr;
    }

    /**
     * The "cache: H hits, M misses, S stored; ..." report line;
     * empty for an uncached engine. Counters accumulate across this
     * engine's runs -- the process-lifetime view. Each ResultSet
     * carries its own per-request delta instead (the line a client
     * of a shared, long-lived engine should report).
     */
    std::string cacheStatsLine() const;

    /**
     * Validate @p req, expand it, take its shard's slice, and execute
     * on the worker pool (consulting the cache store when configured);
     * runBatch({req}). With @p onResult, each scenario is additionally
     * streamed in expansion order as it completes. Never throws on
     * scenario failure -- inspect the ResultSet.
     *
     * With a non-null @p cancel, the run observes the token between
     * scenario jobs (runner::CancelToken): cancelled jobs land as
     * typed kCancelledError failures at their expansion index, so a
     * long sweep submitted by a service can be abandoned without
     * tearing down the engine or losing already-computed results.
     */
    ResultSet run(const ScenarioRequest &req,
                  const ResultCallback &onResult = {},
                  const runner::CancelToken *cancel = nullptr);

    /**
     * Submit several requests as one batch: every request's sharded
     * expansion executes on one shared pool (so concurrency spans
     * request boundaries), and each request gets its own ResultSet at
     * its index. An invalid request yields its InvalidRequest
     * ResultSet without blocking the others. @p onResult streams all
     * scenarios in global (request-major) order; @p cancel follows
     * the run() contract across the whole batch.
     */
    std::vector<ResultSet>
    runBatch(const std::vector<ScenarioRequest> &requests,
             const ResultCallback &onResult = {},
             const runner::CancelToken *cancel = nullptr);

    /**
     * Dry-run: the sharded scenario list @p req would execute, with
     * each scenario's cache key and a hit/miss forecast against the
     * current store contents; a repeated key is a hit, as in run().
     * Never simulates and never touches the cache counters. An
     * invalid request yields an empty plan (check req.validate() /
     * req.error()).
     */
    std::vector<ScenarioPlan> plan(const ScenarioRequest &req);

    /**
     * The generic entry: run caller-built jobs (the figure benches'
     * grid points, or any unit that produces payload bytes) through
     * the pool's cached-job loop against this engine's store. Each
     * outcome lands in its job's status slot; a failed job never
     * stops the others. A cache directory that cannot be created
     * degrades to computing everything -- call prepare() first to
     * report it.
     */
    void runJobs(const std::vector<runner::CachedJob> &jobs);

  private:
    ResultSet rejected(const ScenarioRequest &req) const;

    EngineConfig config_;
    int workers_;
    runner::ScenarioPool pool_;
    std::optional<cache::ResultStore> store_;
    std::once_flag prepare_once_;
    std::string prepare_error_; //!< written once under prepare_once_
};

/**
 * Run one options value across its requested architectures (the
 * scenario executor behind every Engine submission). Only the
 * requested architectures are simulated; ones that cannot execute
 * the workload are absent from the result.
 */
CaseResult runScenarioCases(const cli::Options &opt);

} // namespace engine
} // namespace canon

#endif // CANON_ENGINE_ENGINE_HH
