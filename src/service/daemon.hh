/**
 * @file
 * canond: the multi-tenant simulation daemon over canon::engine.
 *
 * One Daemon owns one warm engine::Engine -- worker pool plus
 * content-addressed result cache -- and serves it to any number of
 * concurrent clients over a Unix-domain stream socket speaking
 * canon-rpc-1 (protocol.hh). The engine is the amortization unit:
 * every connection shares the same cache, so scenarios any client
 * has computed are hits for all of them, and a warm daemon answers
 * a repeated sweep without executing a single simulation job.
 *
 * Life of a submission:
 *
 *  1. decode + validate (the same grammar the canonsim CLI uses;
 *     invalid requests get a typed Rejected frame);
 *  2. cheap cost forecast: engine.plan() predicts how many
 *     scenarios would actually simulate; a submission predicted to
 *     exceed the per-request job quota is rejected before it can
 *     occupy a slot (cache hits are free, so a warm sweep passes a
 *     quota its cold twin would fail);
 *  3. admission: an Accepted frame carries the job id, then the
 *     submission waits its turn in the AdmissionQueue (priority,
 *     then per-client fairness, then arrival order; at most
 *     maxActive submissions run concurrently);
 *  4. execution: engine.run streams every scenario outcome back as
 *     a Result frame in expansion order (the pool's ordered
 *     callback), each rendered server-side so all clients see
 *     byte-identical bytes for identical submissions;
 *  5. a Done frame reports the per-request cache delta, failure and
 *     cancellation counts, and the admission wait.
 *
 * Cancellation: every running submission has a runner::CancelToken
 * registered under its job id; a Cancel frame (from any connection)
 * latches it and the pool skips every scenario it has not started.
 * A client that vanishes mid-stream cancels its own job the same
 * way -- the daemon never burns the pool on results nobody reads.
 *
 * Shutdown: requestStop() is async-signal-safe (the accept loop
 * polls a flag). stop() then drains: new submissions are rejected
 * with Rejected(draining), accepted ones run to completion, idle
 * connections are woken with a read shutdown, and every handler
 * thread is joined. If the drain deadline passes with jobs still
 * running, they are cooperatively cancelled, every connection is
 * shut down in both directions (so a send blocked on a client that
 * stopped reading fails instead of hanging the join), and the daemon
 * reports them as leaked (exitCode() 1) -- the CI gate asserts that
 * a clean drain exits 0 and that a stalled client's drain exits 1.
 */

#ifndef CANON_SERVICE_DAEMON_HH
#define CANON_SERVICE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hh"
#include "runner/cancel.hh"
#include "service/admission.hh"
#include "service/protocol.hh"
#include "service/socket.hh"

namespace canon
{
namespace service
{

struct DaemonConfig
{
    /** Filesystem path of the listening Unix socket. */
    std::string socketPath;

    /** Engine worker threads; <= 0 means hardware concurrency. */
    int jobs = 0;

    /** Result-cache directory; empty runs the engine uncached. */
    std::string cacheDir;
    cache::Mode cacheMode = cache::Mode::ReadWrite;

    /** Submissions allowed to run concurrently (clamped >= 1). */
    int maxActive = 2;

    /**
     * Per-submission quota on *predicted simulation jobs* (plan()
     * misses); a forecast above it is rejected with QuotaExceeded.
     * 0 means unlimited. Cache hits never count against it.
     */
    std::uint64_t jobQuota = 0;

    /** Drain deadline at stop(); past it, running jobs leak. */
    int drainWaitMs = 60000;
};

/**
 * Parse canond's arguments (argv without the program name) into
 * @p cfg, in the "--key value" and "--key=value" spellings: --socket
 * (required), --max-active, --job-quota, --drain-wait-ms, and the
 * --jobs/--cache-dir/--cache grammar shared with canonsim. Requests
 * carry no shard or observability options, so those common flags are
 * unknown here. --help/-h sets @p showHelp and stops parsing. Returns
 * an empty string on success, otherwise the usage error.
 */
std::string parseDaemonArgs(const std::vector<std::string> &args,
                            DaemonConfig &cfg, bool &showHelp);

/** Monotonic counters rendered by statsText(); all relaxed. */
struct ServiceStats
{
    std::atomic<std::uint64_t> clientsTotal{0};
    std::atomic<std::uint64_t> clientsActive{0};
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> rejectedInvalid{0};
    std::atomic<std::uint64_t> rejectedQuota{0};
    std::atomic<std::uint64_t> rejectedDraining{0};
    std::atomic<std::uint64_t> rejectedProtocol{0};
    std::atomic<std::uint64_t> cancelRequests{0};
    std::atomic<std::uint64_t> cancelHonored{0};
    std::atomic<std::uint64_t> scenariosStreamed{0};
    std::atomic<std::uint64_t> scenariosFailed{0};
    std::atomic<std::uint64_t> scenariosCancelled{0};
    std::atomic<std::uint64_t> queueWaitUsTotal{0};
};

class Daemon
{
  public:
    explicit Daemon(DaemonConfig config);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Bind the socket, warm the engine (cache directory prepared
     * now, so a bad path fails startup, not the first request), and
     * spawn the accept loop. Returns an empty string on success.
     */
    std::string start();

    /**
     * Flag the daemon to stop. Async-signal-safe: one relaxed
     * atomic store, no locks, no allocation -- callable straight
     * from a SIGTERM handler. The accept loop notices within its
     * poll interval; call stop() (from a normal thread) to drain
     * and join.
     */
    void requestStop() { stopping_.store(true); }

    /**
     * Drain and shut down: reject new submissions, let accepted
     * ones finish (up to drainWaitMs, then cancel cooperatively and
     * shut every connection down), wake idle connections, join every
     * thread, close the socket.
     * Idempotent. Returns exitCode().
     */
    int stop();

    /** 0 after a clean drain; 1 when jobs were leaked/cancelled. */
    int exitCode() const { return leaked_.load() ? 1 : 0; }

    /** Block until requestStop() is observed (signal-driven mains). */
    void waitForStopRequest() const;

    const DaemonConfig &config() const { return config_; }
    engine::Engine &engine() { return engine_; }
    const ServiceStats &stats() const { return stats_; }

    /** The "service.*" counter report a Stats frame returns. */
    std::string statsText() const;

  private:
    struct Connection
    {
        // The fd stays owned here (not moved into the handler) so
        // stop() can shutdownRead it to wake an idle reader.
        Fd fd;
        std::thread thread;
        std::atomic<bool> finished{false};
    };

    void acceptLoop();
    void reapFinishedLocked();
    void handleConnection(Connection *conn);
    void handleSubmit(const Fd &fd, const SubmitBody &body);
    void handlePlan(const Fd &fd, const SubmitBody &body);
    bool sendRejected(const Fd &fd, RejectReason reason,
                      const std::string &message);

    DaemonConfig config_;
    engine::Engine engine_;
    AdmissionQueue admission_;
    ServiceStats stats_;

    Fd listen_fd_;
    std::thread accept_thread_;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<bool> leaked_{false};

    std::mutex conn_mutex_;
    std::vector<std::unique_ptr<Connection>> connections_;

    // Live submissions: job id -> cancel token, for Cancel frames
    // from any connection; plus a drain-side count of running jobs.
    std::mutex jobs_mutex_;
    std::condition_variable jobs_cv_;
    std::map<std::uint64_t,
             std::shared_ptr<runner::CancelToken>>
        live_jobs_;
    std::atomic<std::uint64_t> next_job_id_{1};
    std::atomic<int> running_jobs_{0};
};

} // namespace service
} // namespace canon

#endif // CANON_SERVICE_DAEMON_HH
