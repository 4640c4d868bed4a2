#include "runner/pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
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
ScenarioPool::forEach(
    std::size_t count,
    const std::function<void(std::size_t)> &task) const
{
    if (count == 0)
        return;

    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            task(i);
        }
    };

    const int n = std::clamp(
        workers_, 1,
        static_cast<int>(std::min<std::size_t>(count, 256)));
    if (n == 1) {
        // Degenerate pool: run inline, no thread spawn.
        worker();
        return;
    }

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();
}

void
ScenarioPool::runCached(const std::vector<CachedJob> &jobs,
                        const cache::ResultStore *store,
                        const std::function<void(std::size_t)> &onDone,
                        const CancelToken *cancel) const
{
    // Ordered emit: finished jobs are held back until every
    // lower-indexed job has finished, then released in one in-order
    // burst under the lock. A callback that throws must not escape a
    // worker thread (std::terminate); the first exception is latched,
    // delivery stops, and it rethrows on the caller's thread after the
    // pool has joined.
    std::mutex emit_mutex;
    std::vector<char> finished(jobs.size(), 0);
    std::size_t next_emit = 0;
    std::exception_ptr emit_error;
    auto emitReady = [&](std::size_t i) {
        if (!onDone)
            return;
        std::lock_guard<std::mutex> lock(emit_mutex);
        finished[i] = 1;
        while (!emit_error && next_emit < jobs.size() &&
               finished[next_emit]) {
            try {
                onDone(next_emit);
            } catch (...) {
                emit_error = std::current_exception();
            }
            ++next_emit;
        }
    };

    // Host phase timers (--host-timers) reference the pool's entry
    // time for the queue-wait measure. One clock read, taken only
    // when some job actually asked for host telemetry.
    std::uint64_t pool_t0 = 0;
    for (const CachedJob &job : jobs)
        if (job.obs && job.obs->hostTimers) {
            pool_t0 = obs::hostNowUs();
            break;
        }

    forEach(jobs.size(), [&](std::size_t i) {
        const CachedJob &job = jobs[i];
        JobStatus &st = *job.status;

        // Cooperative cancel, polled once per job before any work:
        // a cancelled run skips everything it has not started --
        // including the cache probe, so the store's counters never
        // see skipped jobs -- but still lands a typed failure at the
        // job's index to keep the expansion-order contract intact.
        if (cancel && cancel->cancelled()) {
            st.error = kCancelledError;
            emitReady(i);
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

        bool hit = false;
        if (store && store->readsEnabled()) {
            event(obs::CacheEventKind::Probe);
            const std::uint64_t t0 = now();
            if (auto payload = store->lookup(job.key))
                hit = job.accept(*payload);
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
                store->store(job.key, payload, &st.cacheStored);
                host.cacheStoreUs = now() - t_store;
                event(obs::CacheEventKind::Store);
            }
        }

        if (col) {
            if (timing)
                col->recordHostTimes(host);
            scope.reset();
            st.obs = col->finish();
        }
        emitReady(i);
    });
    if (emit_error)
        std::rethrow_exception(emit_error);
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
