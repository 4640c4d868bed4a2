#include "service/daemon.hh"

#include <chrono>
#include <stdexcept>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/parse.hh"
#include "engine/registry.hh"
#include "obs/host.hh"
#include "service/render.hh"

namespace canon
{
namespace service
{

namespace
{

/** Accept-loop poll interval: stop-request latency upper bound. */
constexpr int kAcceptPollMs = 100;

Frame
textFrame(MsgType type, std::string text)
{
    return Frame{type, std::move(text)};
}

Frame
kvFrame(MsgType type, const KvPairs &records)
{
    std::string error;
    return Frame{type, encodeKv(records, error)};
}

} // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      engine_(engine::EngineConfig{config_.jobs, config_.cacheDir,
                                   config_.cacheMode}),
      admission_(config_.maxActive)
{
}

Daemon::~Daemon()
{
    stop();
}

std::string
Daemon::start()
{
    if (started_.exchange(true))
        return "daemon already started";

    // Fail on a bad cache directory now, not on the first Submit.
    std::string error = engine_.prepare();
    if (!error.empty())
        return error;

    listen_fd_ = listenUnix(config_.socketPath, error);
    if (!listen_fd_.valid())
        return error;

    accept_thread_ = std::thread([this] { acceptLoop(); });
    return "";
}

void
Daemon::waitForStopRequest() const
{
    while (!stopping_.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

int
Daemon::stop()
{
    if (!started_.load() || stopped_.exchange(true))
        return exitCode();

    stopping_.store(true);
    if (accept_thread_.joinable())
        accept_thread_.join();
    listen_fd_.reset();
    ::unlink(config_.socketPath.c_str());

    // Wake handler threads idle in readFrame; handlers mid-submission
    // keep their write side and finish streaming. New Submit frames
    // that were already buffered get Rejected(draining).
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (auto &c : connections_)
            c->fd.shutdownRead();
    }

    // Drain: admitted submissions run to completion, up to the
    // deadline; past it, cancel cooperatively and report the leak.
    {
        std::unique_lock<std::mutex> lock(jobs_mutex_);
        const bool drained = jobs_cv_.wait_for(
            lock, std::chrono::milliseconds(config_.drainWaitMs),
            [this] { return running_jobs_.load() == 0; });
        if (!drained) {
            leaked_.store(true);
            for (auto &kv : live_jobs_)
                kv.second->cancel();
        }
    }
    admission_.close();

    std::vector<std::unique_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        conns.swap(connections_);
    }
    for (auto &c : conns) {
        if (c->thread.joinable())
            c->thread.join();
    }
    return exitCode();
}

void
Daemon::acceptLoop()
{
    while (!stopping_.load()) {
        pollfd pfd{listen_fd_.get(), POLLIN, 0};
        const int rc = ::poll(&pfd, 1, kAcceptPollMs);
        {
            std::lock_guard<std::mutex> lock(conn_mutex_);
            reapFinishedLocked();
        }
        if (rc <= 0)
            continue; // timeout or EINTR: re-check the stop flag
        Fd client(::accept(listen_fd_.get(), nullptr, nullptr));
        if (!client.valid())
            continue;

        stats_.clientsTotal.fetch_add(1);
        stats_.clientsActive.fetch_add(1);

        std::lock_guard<std::mutex> lock(conn_mutex_);
        connections_.push_back(std::make_unique<Connection>());
        Connection *conn = connections_.back().get();
        conn->fd = std::move(client);
        conn->thread =
            std::thread([this, conn] { handleConnection(conn); });
    }
}

void
Daemon::reapFinishedLocked()
{
    for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->finished.load()) {
            if ((*it)->thread.joinable())
                (*it)->thread.join();
            it = connections_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Daemon::handleConnection(Connection *conn)
{
    const Fd &fd = conn->fd;
    FrameDecoder decoder;
    Frame frame;
    std::string error;
    bool hello_done = false;
    bool alive = true;

    while (alive) {
        const ReadStatus status =
            readFrame(fd, decoder, frame, error);
        if (status == ReadStatus::Eof)
            break;
        if (status == ReadStatus::Error) {
            stats_.rejectedProtocol.fetch_add(1);
            sendFrame(fd, textFrame(MsgType::Error, error));
            break;
        }

        // The handshake must come first so a peer speaking another
        // protocol revision fails fast instead of mid-submission.
        if (!hello_done) {
            if (frame.type != MsgType::Hello) {
                stats_.rejectedProtocol.fetch_add(1);
                sendFrame(fd, textFrame(MsgType::Error,
                                        "expected hello frame"));
                break;
            }
            KvPairs records;
            std::string proto;
            if (decodeKv(frame.payload, records, error)) {
                for (const auto &kv : records)
                    if (kv.first == "proto")
                        proto = kv.second;
            }
            if (proto != kProtocolName) {
                stats_.rejectedProtocol.fetch_add(1);
                sendFrame(fd, textFrame(
                    MsgType::Error,
                    "unsupported protocol '" + proto + "' (want " +
                        kProtocolName + ")"));
                break;
            }
            sendFrame(fd, kvFrame(
                MsgType::HelloAck,
                {{"proto", kProtocolName},
                 {"workers", std::to_string(engine_.workers())},
                 {"cache", engine_.store() ? "on" : "off"}}));
            hello_done = true;
            continue;
        }

        switch (frame.type) {
          case MsgType::Submit:
          case MsgType::Plan: {
            SubmitBody body;
            if (!decodeSubmit(frame.payload, body, error)) {
                stats_.rejectedProtocol.fetch_add(1);
                sendRejected(fd, RejectReason::ProtocolError, error);
                break;
            }
            if (frame.type == MsgType::Submit)
                handleSubmit(fd, body);
            else
                handlePlan(fd, body);
            break;
          }
          case MsgType::List:
            sendFrame(fd, textFrame(MsgType::ListReply,
                                    engine::listText()));
            break;
          case MsgType::Stats:
            sendFrame(fd,
                      textFrame(MsgType::StatsReply, statsText()));
            break;
          case MsgType::Cancel: {
            stats_.cancelRequests.fetch_add(1);
            // Job ids start at 1, so a malformed body looks up job 0
            // and finds nothing.
            KvPairs records;
            std::uint64_t job_id = 0;
            if (decodeKv(frame.payload, records, error)) {
                for (const auto &kv : records)
                    if (kv.first == "job" && !parseInt(kv.second, job_id))
                        job_id = 0;
            }
            bool found = false;
            {
                std::lock_guard<std::mutex> lock(jobs_mutex_);
                auto it = live_jobs_.find(job_id);
                if (it != live_jobs_.end()) {
                    it->second->cancel();
                    found = true;
                }
            }
            if (found)
                stats_.cancelHonored.fetch_add(1);
            sendFrame(fd, kvFrame(MsgType::CancelReply,
                                  {{"found", found ? "1" : "0"}}));
            break;
          }
          default:
            stats_.rejectedProtocol.fetch_add(1);
            sendFrame(fd, textFrame(MsgType::Error,
                                    "unexpected frame type"));
            alive = false;
            break;
        }
    }
    stats_.clientsActive.fetch_sub(1);
    conn->finished.store(true);
}

bool
Daemon::sendRejected(const Fd &fd, RejectReason reason,
                     const std::string &message)
{
    switch (reason) {
      case RejectReason::InvalidRequest:
        stats_.rejectedInvalid.fetch_add(1);
        break;
      case RejectReason::QuotaExceeded:
        stats_.rejectedQuota.fetch_add(1);
        break;
      case RejectReason::Draining:
        stats_.rejectedDraining.fetch_add(1);
        break;
      case RejectReason::ProtocolError:
        // counted at the decode site
        break;
    }
    // Error text can quote user input; newlines cannot ride a kv
    // value, so flatten them rather than dropping the message.
    std::string flat = message;
    for (char &c : flat)
        if (c == '\n')
            c = ' ';
    return sendFrame(fd, kvFrame(MsgType::Rejected,
                                 {{"reason", rejectReasonName(reason)},
                                  {"message", flat}}));
}

void
Daemon::handleSubmit(const Fd &fd, const SubmitBody &body)
{
    stats_.submitted.fetch_add(1);

    engine::ScenarioRequest req = requestFromSubmit(body);
    if (!req.validate()) {
        sendRejected(fd, RejectReason::InvalidRequest, req.error());
        return;
    }
    if (stopping_.load()) {
        sendRejected(fd, RejectReason::Draining,
                     "daemon is shutting down");
        return;
    }

    // plan() is the cheap cost forecast: it simulates nothing and
    // touches no cache counters, so it can gate every submission.
    const std::vector<engine::ScenarioPlan> plans = engine_.plan(req);
    std::uint64_t predicted = 0;
    for (const auto &p : plans)
        predicted += p.forecast != engine::ScenarioPlan::Forecast::Hit;
    if (config_.jobQuota != 0 && predicted > config_.jobQuota) {
        sendRejected(fd, RejectReason::QuotaExceeded,
                     "forecast " + std::to_string(predicted) +
                         " simulation jobs exceeds quota " +
                         std::to_string(config_.jobQuota) +
                         " (cache hits are free; warm the cache or"
                         " narrow the sweep)");
        return;
    }

    const std::uint64_t job_id = next_job_id_.fetch_add(1);
    auto token = std::make_shared<runner::CancelToken>();
    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        live_jobs_.emplace(job_id, token);
        running_jobs_.fetch_add(1);
    }

    if (!sendFrame(fd, kvFrame(
            MsgType::Accepted,
            {{"job", std::to_string(job_id)},
             {"scenarios", std::to_string(plans.size())},
             {"predicted_jobs", std::to_string(predicted)}}))) {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        live_jobs_.erase(job_id);
        running_jobs_.fetch_sub(1);
        jobs_cv_.notify_all();
        return;
    }

    const std::uint64_t wait_t0 = obs::hostNowUs();
    const Ticket ticket = admission_.enqueue(body.priority, body.client);
    const bool granted = admission_.awaitGrant(ticket);
    const std::uint64_t queue_wait = obs::hostNowUs() - wait_t0;
    stats_.queueWaitUsTotal.fetch_add(queue_wait);

    engine::ResultSet rs;
    bool peer_gone = false;
    if (granted) {
        stats_.admitted.fetch_add(1);
        try {
            rs = engine_.run(
                req,
                [&](const runner::ScenarioResult &r) {
                    stats_.scenariosStreamed.fetch_add(1);
                    if (!sendFrame(fd, Frame{
                            MsgType::Result,
                            encodeResultFrame(r.job.index, r)})) {
                        // Nobody is reading: stop simulating the
                        // rest of this submission.
                        token->cancel();
                        throw std::runtime_error(
                            "client disconnected mid-stream");
                    }
                },
                token.get());
        } catch (const std::exception &) {
            peer_gone = true;
        }
        admission_.release();
    }

    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        live_jobs_.erase(job_id);
        running_jobs_.fetch_sub(1);
        jobs_cv_.notify_all();
    }

    if (!granted) {
        // The queue closed before this submission got a slot (drain
        // deadline passed): it never ran.
        sendRejected(fd, RejectReason::Draining,
                     "daemon drained before the job was admitted");
        return;
    }
    if (peer_gone)
        return;

    stats_.completed.fetch_add(1);
    stats_.scenariosFailed.fetch_add(rs.failureCount());
    stats_.scenariosCancelled.fetch_add(rs.cancelledCount());

    DoneBody done;
    done.jobId = job_id;
    done.scenarios = rs.size();
    done.failures = rs.failureCount();
    done.cancelled = rs.cancelledCount();
    done.cacheLine = rs.cacheStatsLine();
    done.queueWaitUs = queue_wait;
    std::string error;
    sendFrame(fd, Frame{MsgType::Done, encodeDone(done, error)});
}

void
Daemon::handlePlan(const Fd &fd, const SubmitBody &body)
{
    engine::ScenarioRequest req = requestFromSubmit(body);
    if (!req.validate()) {
        sendRejected(fd, RejectReason::InvalidRequest, req.error());
        return;
    }
    const std::vector<engine::ScenarioPlan> plans = engine_.plan(req);
    sendFrame(fd, textFrame(
        MsgType::PlanReply,
        renderPlanText(plans, engine_.store() != nullptr)));
}

std::string
Daemon::statsText() const
{
    auto line = [](const std::string &key, const std::string &value) {
        return key + ": " + value + "\n";
    };
    auto count = [&](const std::string &key,
                     const std::atomic<std::uint64_t> &v) {
        return line(key, std::to_string(v.load()));
    };

    std::string out;
    out += line("service.proto", kProtocolName);
    out += line("service.engine.workers",
                std::to_string(engine_.workers()));
    out += line("service.engine.cache",
                engine_.store() ? "on" : "off");
    out += count("service.clients.total", stats_.clientsTotal);
    out += count("service.clients.active", stats_.clientsActive);
    out += count("service.requests.submitted", stats_.submitted);
    out += count("service.requests.admitted", stats_.admitted);
    out += count("service.requests.completed", stats_.completed);
    out += count("service.requests.rejected.invalid_request",
                 stats_.rejectedInvalid);
    out += count("service.requests.rejected.quota_exceeded",
                 stats_.rejectedQuota);
    out += count("service.requests.rejected.draining",
                 stats_.rejectedDraining);
    out += count("service.requests.rejected.protocol_error",
                 stats_.rejectedProtocol);
    out += count("service.cancel.requests", stats_.cancelRequests);
    out += count("service.cancel.honored", stats_.cancelHonored);
    out += count("service.scenarios.streamed",
                 stats_.scenariosStreamed);
    out += count("service.scenarios.failed", stats_.scenariosFailed);
    out += count("service.scenarios.cancelled",
                 stats_.scenariosCancelled);
    out += line("service.queue.waiting",
                std::to_string(admission_.waitingCount()));
    out += line("service.queue.active",
                std::to_string(admission_.activeCount()));
    out += count("service.queue.wait_us_total",
                 stats_.queueWaitUsTotal);
    out += line("service.cache.line",
                engine_.store() ? engine_.cacheStatsLine() : "off");
    return out;
}

} // namespace service
} // namespace canon
