/**
 * @file
 * Worker-pool execution of independent jobs.
 *
 * Every job the pool runs goes through one cached-job loop,
 * runCached(). A CachedJob is a cache identity (ScenarioKey), a
 * compute() that produces payload bytes, and an accept() that takes a
 * payload into the caller's result slot -- or rejects it as unusable.
 * Per job, the loop:
 *
 *  1. waits for the first job of its key when that is an earlier one
 *     and the store reads and writes (rule 1, firstOfKey()), so its
 *     probe hits the entry that job stored;
 *  2. polls the CancelToken (a cancelled job lands kCancelledError and
 *     never touches the store);
 *  3. installs a Collector when the job's obs options ask for one, so
 *     the fabric and cache layers report without plumbing;
 *  4. with a readable store, looks the key up and counts a hit only
 *     when accept() takes the stored payload -- one read, one decode;
 *  5. otherwise counts one miss, runs compute(), hands the fresh
 *     payload to accept(), and (writes enabled, no failure) stores it,
 *     replacing an entry the probe found but accept() rejected;
 *  6. seals the observations and marks the job finished.
 *
 * This is the only place that counts hits and misses or writes the
 * store, so canonsim scenarios, figure grid points and dry-run
 * forecasts all follow one hit rule: a stored entry counts only when
 * its job's accept() takes it, and an unusable entry is exactly one
 * miss. run() is the scenario caller: it wraps each SweepJob as
 * encodeCaseResult(fn(options)) accepted by acceptCases().
 *
 * Thread-safety and ordering contract:
 *  - The calling thread is one of the pool's workers; the call
 *    starts and joins the rest. compute()/accept() (and run()'s fn)
 *    run concurrently on all of them, each call for a distinct job;
 *    they must not touch shared mutable state without their own
 *    synchronization. Only the calling thread runs onDone (rule 2).
 *  - Each outcome lands in its job's own slot, and rule 1 fixes which
 *    job of a key simulates, so outcomes -- and any rendered table,
 *    CSV or obs artifact -- do not depend on thread count or
 *    scheduling.
 *  - The pool itself is stateless across calls; a const ScenarioPool
 *    may be shared freely.
 */

#ifndef CANON_RUNNER_POOL_HH
#define CANON_RUNNER_POOL_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/store.hh"
#include "obs/collector.hh"
#include "runner/cancel.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"

namespace canon
{
namespace runner
{

/** Error recorded when a scenario yields no profile at all. */
inline constexpr const char *kNoArchError =
    "no requested architecture can execute this scenario";

/** How the cached-job loop finished one job. */
struct JobStatus
{
    std::string error; //!< nonempty when the job failed

    /**
     * How the result cache treated this job: satisfied from the
     * store (cacheHit), or computed and written back (cacheStored).
     * Both false for uncached runs, failures, and cancelled jobs.
     * Per-job attribution is what lets a ResultSet report its own
     * hit/miss/store delta even when many requests share one
     * engine's store counters (see ResultSet::cacheStatsLine).
     */
    bool cacheHit = false;
    bool cacheStored = false;

    /** True when the job was skipped by a cancelled run. */
    bool cancelled() const { return error == kCancelledError; }

    /**
     * Observations gathered while this job executed; null when the
     * job's obs options were all off. Cache hits carry their cache
     * events but no fabric runs (nothing simulated).
     */
    std::shared_ptr<const obs::ScenarioObs> obs;
};

/** Outcome of one sweep job: per-arch profiles, or an error. */
struct ScenarioResult : JobStatus
{
    SweepJob job;
    CaseResult cases;
};

/** One unit of work for ScenarioPool::runCached(). */
struct CachedJob
{
    cache::ScenarioKey key; //!< store identity; unused without a store

    /** Observation knobs; null (or all off) observes nothing. */
    const obs::ObsOptions *obs = nullptr;

    /** Produce the payload bytes; throws on failure. */
    std::function<std::string()> compute;

    /**
     * Decode a payload into the caller's result slot. Returning false
     * marks it unusable: a stored entry is then recomputed as a miss.
     */
    std::function<bool(const std::string &)> accept;

    JobStatus *status = nullptr; //!< where the loop records the outcome
};

/**
 * The scenario hit rule: decode @p payload into @p out and take it
 * only when it holds at least one profile (@p out is left empty
 * otherwise). run() accepts stored and fresh payloads with it, and
 * Engine::plan() forecasts with it.
 */
bool acceptCases(const std::string &payload, CaseResult &out);

/**
 * Rule 1's table, for runCached() and Engine::plan(): entry i is the
 * index of the first of @p items (anything with a cache::ScenarioKey
 * `key`) whose key equals item i's when @p store both reads and
 * writes, and i otherwise. A repeat (entry below i) waits for that
 * job and hits what it stored; with any other store it runs alone.
 */
template <class Item>
std::vector<std::size_t>
firstOfKey(const std::vector<Item> &items,
           const cache::ResultStore *store)
{
    const bool reuse =
        store && store->readsEnabled() && store->writesEnabled();
    std::unordered_map<std::string_view, std::size_t> seen;
    std::vector<std::size_t> first(items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        first[i] = reuse ? seen.try_emplace(items[i].key.canonical, i)
                               .first->second
                         : i;
    return first;
}

class ScenarioPool
{
  public:
    /** @p workers is clamped to [1, jobs] at run time. */
    explicit ScenarioPool(int workers) : workers_(workers) {}

    /**
     * The cached-job loop (see the file comment). With a null
     * @p store every job computes. A compute() that throws, or a fresh
     * payload accept() rejects, fails only its own job (its status
     * carries the error) and is never stored; the other jobs still
     * run.
     *
     * With a non-null @p onDone, onDone(i) runs for job i once jobs
     * 0..i have all finished, on the calling thread only: it delivers
     * the finished prefix between its own jobs, then waits for the
     * rest in index order. The callback may block (the other workers
     * keep running jobs) but must not re-enter the pool. A throw
     * stops delivery and leaves runCached() once the other workers
     * have finished the jobs they were running and joined.
     *
     * With a non-null @p cancel, the token is polled before each job
     * starts: once cancelled, every not-yet-started job is skipped
     * with kCancelledError (in-flight jobs finish normally; skipped
     * jobs never touch the store).
     */
    void runCached(const std::vector<CachedJob> &jobs,
                   const cache::ResultStore *store,
                   const std::function<void(std::size_t)> &onDone = {},
                   const CancelToken *cancel = nullptr) const;

    /**
     * The scenario caller of runCached(): every job's payload is
     * encodeCaseResult(fn(options)), accepted by acceptCases(). A job
     * whose fn throws -- or yields no profile (kNoArchError) -- is
     * captured as a failed ScenarioResult; the remaining jobs still
     * run. @p onResult streams each result in job-index order and
     * @p cancel skips unstarted jobs, per the runCached() contract.
     */
    std::vector<ScenarioResult>
    run(const std::vector<SweepJob> &jobs,
        const std::function<CaseResult(const cli::Options &)> &fn,
        const cache::ResultStore *store = nullptr,
        const std::function<void(const ScenarioResult &)> &onResult =
            {},
        const CancelToken *cancel = nullptr) const;

  private:
    int workers_;
};

} // namespace runner
} // namespace canon

#endif // CANON_RUNNER_POOL_HH
