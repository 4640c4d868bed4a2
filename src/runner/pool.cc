#include "runner/pool.hh"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cache/key.hh"
#include "cache/payload.hh"
#include "obs/host.hh"

namespace canon
{
namespace runner
{

bool
acceptCases(const std::string &payload, CaseResult &out)
{
    if (cache::decodeCaseResult(payload, out) && !out.empty())
        return true;
    out.clear();
    return false;
}

void
ScenarioPool::runCached(const std::vector<CachedJob> &jobs,
                        const cache::ResultStore *store,
                        const std::function<void(std::size_t)> &onDone,
                        const CancelToken *cancel) const
{
    // Host phase timers (--host-timers) reference the pool's entry
    // time for the queue-wait measure. One clock read, taken only
    // when some job actually asked for host telemetry.
    std::uint64_t pool_t0 = 0;
    for (const CachedJob &job : jobs)
        if (job.obs && job.obs->hostTimers) {
            pool_t0 = obs::hostNowUs();
            break;
        }

    // Set once a job is done: a repeated key waits on its first job's
    // flag, and the caller on each flag in turn to deliver.
    std::vector<std::atomic<bool>> finished(jobs.size());
    const std::vector<std::size_t> first = firstOfKey(jobs, store);

    auto runJob = [&](std::size_t i) {
        const CachedJob &job = jobs[i];
        JobStatus &st = *job.status;

        // Rule 1: wait for this key's first job. Running jobs wait only
        // on earlier, claimed jobs, never on onDone, so this ends.
        if (first[i] != i)
            finished[first[i]].wait(false);

        // Cooperative cancel, polled once per job before any work:
        // a cancelled run skips everything it has not started --
        // including the cache probe, so the store's counters never
        // see skipped jobs -- but still lands a typed failure at the
        // job's index to keep the expansion-order contract intact.
        if (cancel && cancel->cancelled()) {
            st.error = kCancelledError;
            return;
        }

        // Observe this job when asked: the collector rides the worker
        // thread (obs::current()). With obs off this is one branch.
        std::optional<obs::Collector> col;
        std::optional<obs::ScopedCollector> scope;
        if (job.obs && job.obs->enabled()) {
            col.emplace(*job.obs);
            scope.emplace(*col);
        }
        auto event = [&col](obs::CacheEventKind kind) {
            if (col)
                col->recordCacheEvent(kind);
        };
        const bool timing = job.obs && job.obs->hostTimers;
        auto now = [timing] { return timing ? obs::hostNowUs() : 0; };
        obs::HostPhaseTimes host;
        host.measured = timing;
        if (timing)
            host.queueWaitUs = obs::hostNowUs() - pool_t0;

        // A miss over an entry found (accept() rejected it) replaces it.
        std::optional<std::string> found;
        bool hit = false;
        if (store && store->readsEnabled()) {
            event(obs::CacheEventKind::Probe);
            const std::uint64_t t0 = now();
            found = store->lookup(job.key);
            hit = found && job.accept(*found);
            host.cacheProbeUs = now() - t0;
        }

        if (hit) {
            store->recordHit();
            st.cacheHit = true;
            event(obs::CacheEventKind::Hit);
        } else {
            if (store) {
                store->recordMiss();
                event(obs::CacheEventKind::Miss);
            }
            const std::uint64_t t_sim = now();
            std::string payload;
            try {
                payload = job.compute();
            } catch (const std::exception &e) {
                st.error = e.what();
            } catch (...) {
                st.error = "unknown exception";
            }
            // The encode runs inside compute(), so it lands in simUs;
            // encodeUs is the fresh payload's hand-off to accept().
            const std::uint64_t t_acc = now();
            host.simUs = t_acc - t_sim;
            if (st.error.empty() && !job.accept(payload))
                st.error = "computed payload failed to decode";
            host.encodeUs = now() - t_acc;

            // Only successful jobs are worth remembering; a failure
            // should re-run (and re-report) next time.
            if (store && store->writesEnabled() && st.error.empty()) {
                const std::uint64_t t_store = now();
                store->store(job.key, payload, &st.cacheStored,
                             found.has_value());
                host.cacheStoreUs = now() - t_store;
                // A worker that lost the race to publish the key
                // stored nothing: only a publish is a store event.
                if (st.cacheStored)
                    event(obs::CacheEventKind::Store);
            }
        }

        if (col) {
            if (timing)
                col->recordHostTimes(host);
            scope.reset();
            st.obs = col->finish();
        }
    };

    std::atomic<std::size_t> next{0};
    auto runNext = [&] {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.size())
            return false;
        runJob(i);
        finished[i].store(true);
        finished[i].notify_all();
        return true;
    };

    // The other workers. Declared last, so that an exception (the
    // callback's, or a failed spawn) stops them between jobs and joins
    // them before anything they use is destroyed.
    const int n = std::clamp(
        workers_, 1,
        static_cast<int>(std::clamp<std::size_t>(jobs.size(), 1, 256)));
    std::vector<std::jthread> helpers;
    for (int t = 1; t < n; ++t)
        helpers.emplace_back([&](std::stop_token stop) {
            while (!stop.stop_requested() && runNext()) {
            }
        });

    // Rule 2: the caller is a worker too, and the only thread that
    // runs onDone. It runs jobs until the next one to deliver has
    // finished; with none left to start, it waits for it.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        while (!finished[i].load() && runNext()) {
        }
        finished[i].wait(false);
        if (onDone)
            onDone(i);
    }
}

std::vector<ScenarioResult>
ScenarioPool::run(
    const std::vector<SweepJob> &jobs,
    const std::function<CaseResult(const cli::Options &)> &fn,
    const cache::ResultStore *store,
    const std::function<void(const ScenarioResult &)> &onResult,
    const CancelToken *cancel) const
{
    std::vector<ScenarioResult> results(jobs.size());
    std::vector<CachedJob> cached(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ScenarioResult &r = results[i];
        r.job = jobs[i];
        const cli::Options &opt = r.job.options;
        CachedJob &c = cached[i];
        if (store)
            c.key = cache::scenarioKey(opt);
        c.obs = &opt.common.obs;
        c.compute = [&fn, &opt] {
            const CaseResult cases = fn(opt);
            if (cases.empty())
                throw std::runtime_error(kNoArchError);
            return cache::encodeCaseResult(cases);
        };
        c.accept = [&r](const std::string &payload) {
            return acceptCases(payload, r.cases);
        };
        c.status = &r;
    }

    std::function<void(std::size_t)> emit;
    if (onResult)
        emit = [&](std::size_t i) { onResult(results[i]); };
    runCached(cached, store, emit, cancel);
    return results;
}

} // namespace runner
} // namespace canon
