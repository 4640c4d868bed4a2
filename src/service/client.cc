#include "service/client.hh"

#include <algorithm>
#include <string_view>

#include "common/parse.hh"
#include "engine/common_flags.hh"
#include "service/render.hh"

namespace canon
{
namespace service
{

namespace
{

using Arg = const std::string &;

/** Add "KEY=VALUE" (a non-empty KEY) with @p add; false if malformed. */
bool
addKv(SubmitBody &body, SubmitBody &(SubmitBody::*add)(Arg, Arg), Arg text)
{
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    (body.*add)(text.substr(0, eq), text.substr(eq + 1));
    return true;
}

/** canonctl's flags; the request ones apply in order. */
constexpr engine::Flag<CtlArgs> kCtlFlags[] = {
    {"socket", true,
     [](CtlArgs &a, Arg v) {
         a.socket = v;
         return std::string();
     }},
    {"client", true,
     [](CtlArgs &a, Arg v) {
         a.body.client = v;
         return std::string();
     }},
    {"priority", true,
     [](CtlArgs &a, Arg v) {
         return parseInt(v, a.body.priority) ? std::string()
                                             : "bad --priority '" + v + "'";
     }},
    {"opt", true,
     [](CtlArgs &a, Arg v) {
         return addKv(a.body, &SubmitBody::opt, v) ? std::string()
                                                   : "--opt needs KEY=VALUE";
     }},
    {"sweep", true,
     [](CtlArgs &a, Arg v) {
         return addKv(a.body, &SubmitBody::sweep, v)
                    ? std::string()
                    : "--sweep needs KEY=VALUES";
     }},
    {"arch", true,
     [](CtlArgs &a, Arg v) {
         a.body.arch(v);
         return std::string();
     }},
};

constexpr std::string_view kCtlCommands[] = {"submit", "plan", "list",
                                             "stats", "cancel"};

} // namespace

std::string
parseCtlArgs(const std::vector<std::string> &args, CtlArgs &out)
{
    // The command, then cancel's job id.
    auto positional = [&out](Arg arg) -> std::string {
        if (out.command.empty() && !arg.empty()) {
            out.command = arg;
            return {};
        }
        if (out.command == "cancel" && out.cancelId == 0)
            return parseInt(arg, out.cancelId) ? std::string()
                                                : "bad job id '" + arg + "'";
        return "bad argument '" + arg + "'";
    };
    if (std::string error = engine::FlagSet(out.showHelp)
                                .add(kCtlFlags, out)
                                .parse(args, positional);
        !error.empty() || out.showHelp)
        return error;
    if (out.socket.empty())
        return "--socket is required";
    if (out.command.empty())
        return "no command";
    if (std::ranges::find(kCtlCommands, out.command) ==
        std::end(kCtlCommands))
        return "unknown command '" + out.command + "'";
    if (out.command == "cancel" && out.cancelId == 0)
        return "cancel needs a job id";
    return {};
}

std::string
Client::connect(const std::string &socketPath)
{
    std::string error;
    fd_ = connectUnix(socketPath, error);
    if (!fd_.valid())
        return error;

    std::string payload = encodeKv({{"proto", kProtocolName}}, error);
    if (!sendFrame(fd_, Frame{MsgType::Hello, payload})) {
        fd_.reset();
        return "hello send failed";
    }

    Frame reply;
    if (!readReply(reply, error)) {
        fd_.reset();
        return error;
    }
    if (reply.type == MsgType::Error) {
        fd_.reset();
        return "daemon refused handshake: " + reply.payload;
    }
    if (reply.type != MsgType::HelloAck) {
        fd_.reset();
        return "unexpected handshake reply";
    }
    KvPairs records;
    if (decodeKv(reply.payload, records, error)) {
        for (const auto &kv : records) {
            int workers = 0;
            if (kv.first == "workers" && !parseInt(kv.second, workers)) {
                fd_.reset();
                return "malformed handshake reply: workers=" + kv.second;
            }
        }
    }
    return "";
}

bool
Client::readReply(Frame &frame, std::string &error)
{
    switch (readFrame(fd_, decoder_, frame, error)) {
      case ReadStatus::Frame:
        return true;
      case ReadStatus::Eof:
        error = "daemon closed the connection";
        return false;
      case ReadStatus::Error:
      case ReadStatus::Timeout:
        break;
    }
    return false;
}

bool
Client::call(const Frame &request, MsgType reply_type,
             std::string &text, std::string &error)
{
    if (!connected()) {
        error = "not connected";
        return false;
    }
    if (!sendFrame(fd_, request)) {
        error = "send failed";
        return false;
    }
    Frame reply;
    if (!readReply(reply, error))
        return false;
    if (reply.type == MsgType::Error) {
        error = "daemon error: " + reply.payload;
        return false;
    }
    // Of the requests sent through here, only a Plan is answered
    // Rejected: its request was invalid.
    if (reply.type == MsgType::Rejected) {
        KvPairs records;
        std::string kv_error, message;
        if (decodeKv(reply.payload, records, kv_error))
            for (const auto &kv : records)
                if (kv.first == "message")
                    message = kv.second;
        error = "plan rejected: " + message;
        return false;
    }
    if (reply.type != reply_type) {
        error = "unexpected reply frame";
        return false;
    }
    text = reply.payload;
    return true;
}

bool
Client::submit(const SubmitBody &body, const ResultFn &onResult,
               SubmitOutcome &outcome, std::string &error)
{
    outcome = SubmitOutcome();
    if (!connected()) {
        error = "not connected";
        return false;
    }
    std::string payload = encodeSubmit(body, error);
    if (!error.empty())
        return false;
    if (!sendFrame(fd_, Frame{MsgType::Submit, payload})) {
        error = "send failed";
        return false;
    }

    // Reply sequence: Rejected, or Accepted, Result*, Done. A
    // Rejected can also arrive *after* Accepted when the daemon
    // drains before the job is admitted.
    for (;;) {
        Frame frame;
        if (!readReply(frame, error))
            return false;
        KvPairs records;
        std::string kv_error;
        switch (frame.type) {
          case MsgType::Rejected: {
            outcome.accepted = false;
            if (!decodeKv(frame.payload, records, kv_error)) {
                error = "malformed rejected frame: " + kv_error;
                return false;
            }
            for (const auto &kv : records) {
                if (kv.first == "reason")
                    rejectReasonFromName(kv.second, outcome.reason);
                else if (kv.first == "message")
                    outcome.message = kv.second;
            }
            return true;
          }
          case MsgType::Accepted: {
            outcome.accepted = true;
            if (!decodeKv(frame.payload, records, kv_error)) {
                error = "malformed accepted frame: " + kv_error;
                return false;
            }
            for (const auto &[key, value] : records) {
                std::uint64_t *field =
                    key == "job"              ? &outcome.jobId
                    : key == "scenarios"      ? &outcome.scenarios
                    : key == "predicted_jobs" ? &outcome.predictedJobs
                                              : nullptr;
                if (field && !parseInt(value, *field)) {
                    error = "malformed accepted field '" + key + "=" +
                            value + "'";
                    return false;
                }
            }
            break;
          }
          case MsgType::Result: {
            std::size_t index = 0;
            std::string text;
            if (!decodeResultFrame(frame.payload, index, text,
                                   error))
                return false;
            if (onResult)
                onResult(index, text);
            break;
          }
          case MsgType::Done:
            if (!decodeDone(frame.payload, outcome.done, error))
                return false;
            return true;
          case MsgType::Error:
            error = "daemon error: " + frame.payload;
            return false;
          default:
            error = "unexpected frame in submit stream";
            return false;
        }
    }
}

bool
Client::plan(const SubmitBody &body, std::string &text,
             std::string &error)
{
    std::string payload = encodeSubmit(body, error);
    return error.empty() && call(Frame{MsgType::Plan, payload},
                                 MsgType::PlanReply, text, error);
}

bool
Client::list(std::string &text, std::string &error)
{
    return call(Frame{MsgType::List, ""}, MsgType::ListReply, text,
                error);
}

bool
Client::stats(std::string &text, std::string &error)
{
    return call(Frame{MsgType::Stats, ""}, MsgType::StatsReply, text,
                error);
}

bool
Client::cancel(std::uint64_t jobId, bool &found, std::string &error)
{
    std::string payload =
        encodeKv({{"job", std::to_string(jobId)}}, error);
    std::string text;
    if (!call(Frame{MsgType::Cancel, payload}, MsgType::CancelReply,
              text, error))
        return false;
    KvPairs records;
    found = false;
    if (decodeKv(text, records, error))
        for (const auto &kv : records)
            if (kv.first == "found")
                found = kv.second == "1";
    return true;
}

} // namespace service
} // namespace canon
