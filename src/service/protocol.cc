#include "service/protocol.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/parse.hh"

namespace canon
{
namespace service
{

bool
knownMsgType(std::uint8_t type)
{
    switch (static_cast<MsgType>(type)) {
      case MsgType::Hello:
      case MsgType::Submit:
      case MsgType::Plan:
      case MsgType::List:
      case MsgType::Stats:
      case MsgType::Cancel:
      case MsgType::HelloAck:
      case MsgType::Accepted:
      case MsgType::Rejected:
      case MsgType::Result:
      case MsgType::Done:
      case MsgType::PlanReply:
      case MsgType::ListReply:
      case MsgType::StatsReply:
      case MsgType::CancelReply:
      case MsgType::Error:
        return true;
    }
    return false;
}

std::string
encodeFrame(const Frame &frame)
{
    panicIf(frame.payload.size() > kMaxFramePayload,
            "encodeFrame: payload of ", frame.payload.size(),
            " bytes exceeds the ", kMaxFramePayload, "-byte cap");
    const std::uint32_t n =
        static_cast<std::uint32_t>(frame.payload.size());
    std::string out;
    out.reserve(kFrameHeaderBytes + frame.payload.size());
    out.push_back(static_cast<char>(n & 0xff));
    out.push_back(static_cast<char>((n >> 8) & 0xff));
    out.push_back(static_cast<char>((n >> 16) & 0xff));
    out.push_back(static_cast<char>((n >> 24) & 0xff));
    out.push_back(static_cast<char>(frame.type));
    out += frame.payload;
    return out;
}

const char *
decodeErrorName(DecodeError e)
{
    switch (e) {
      case DecodeError::None:
        return "none";
      case DecodeError::OversizeFrame:
        return "oversize-frame";
      case DecodeError::UnknownType:
        return "unknown-type";
    }
    return "?";
}

FrameDecoder::FrameDecoder(std::size_t max_payload)
    : max_payload_(std::min(max_payload, kMaxFramePayload))
{
}

void
FrameDecoder::feed(const char *data, std::size_t n)
{
    if (error_ != DecodeError::None)
        return; // a stopped stream cannot resynchronize
    buffer_.append(data, n);
}

FrameDecoder::Status
FrameDecoder::next(Frame &out)
{
    if (error_ != DecodeError::None)
        return Status::Error;

    // Drop the consumed prefix lazily, only once it dominates the
    // buffer, so a long stream of small frames stays O(bytes).
    if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
        buffer_.erase(0, pos_);
        pos_ = 0;
    }

    const std::size_t avail = buffer_.size() - pos_;
    if (avail < kFrameHeaderBytes)
        return Status::NeedMore;

    const unsigned char *h = reinterpret_cast<const unsigned char *>(
        buffer_.data() + pos_);
    const std::uint32_t len = static_cast<std::uint32_t>(h[0]) |
                              (static_cast<std::uint32_t>(h[1]) << 8) |
                              (static_cast<std::uint32_t>(h[2])
                               << 16) |
                              (static_cast<std::uint32_t>(h[3])
                               << 24);

    // Both header checks run before any payload is buffered past
    // the header: a hostile length or type byte costs 5 bytes, not
    // an allocation.
    if (len > max_payload_) {
        error_ = DecodeError::OversizeFrame;
        return Status::Error;
    }
    if (!knownMsgType(h[4])) {
        error_ = DecodeError::UnknownType;
        return Status::Error;
    }

    if (avail < kFrameHeaderBytes + len)
        return Status::NeedMore;

    out.type = static_cast<MsgType>(h[4]);
    out.payload.assign(buffer_, pos_ + kFrameHeaderBytes, len);
    pos_ += kFrameHeaderBytes + len;
    return Status::Ready;
}

std::string
encodeKv(const KvPairs &records, std::string &error)
{
    std::string out;
    for (const auto &[key, value] : records) {
        if (key.empty() ||
            key.find_first_of("=\n") != std::string::npos) {
            error = "invalid record key '" + key + "'";
            return {};
        }
        if (value.find('\n') != std::string::npos) {
            error = "record value for '" + key +
                    "' contains a newline";
            return {};
        }
        out += key;
        out += '=';
        out += value;
        out += '\n';
    }
    error.clear();
    return out;
}

bool
decodeKv(const std::string &payload, KvPairs &out,
         std::string &error)
{
    out.clear();
    if (payload.empty())
        return true;
    if (payload.back() != '\n') {
        error = "truncated record payload (missing final newline)";
        return false;
    }
    std::size_t start = 0;
    while (start < payload.size()) {
        const std::size_t end = payload.find('\n', start);
        const std::string line = payload.substr(start, end - start);
        start = end + 1;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos || eq == 0) {
            error = "malformed record line '" + line + "'";
            return false;
        }
        out.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
    error.clear();
    return true;
}

std::string
encodeSubmit(const SubmitBody &body, std::string &error)
{
    KvPairs records;
    records.emplace_back("client", body.client);
    records.emplace_back("priority", std::to_string(body.priority));
    for (const auto &e : body.entries) {
        switch (e.kind) {
          case SubmitBody::Entry::Kind::Opt:
            records.emplace_back("opt." + e.key, e.value);
            break;
          case SubmitBody::Entry::Kind::Sweep:
            records.emplace_back("sweep." + e.key, e.value);
            break;
          case SubmitBody::Entry::Kind::Arch:
            records.emplace_back("arch", e.value);
            break;
        }
    }
    return encodeKv(records, error);
}

bool
decodeSubmit(const std::string &payload, SubmitBody &out,
             std::string &error)
{
    KvPairs records;
    if (!decodeKv(payload, records, error))
        return false;

    out = SubmitBody{};
    out.client.clear();
    bool have_client = false, have_priority = false;
    for (const auto &[key, value] : records) {
        if (key == "client") {
            if (value.empty()) {
                error = "empty client name";
                return false;
            }
            out.client = value;
            have_client = true;
        } else if (key == "priority") {
            if (!parseInt(value, out.priority) || out.priority < -1000 ||
                out.priority > 1000) {
                error = "malformed priority '" + value + "'";
                return false;
            }
            have_priority = true;
        } else if (key.rfind("opt.", 0) == 0) {
            if (key.size() == 4) {
                error = "empty option key";
                return false;
            }
            out.entries.push_back({SubmitBody::Entry::Kind::Opt,
                                   key.substr(4), value});
        } else if (key.rfind("sweep.", 0) == 0) {
            if (key.size() == 6) {
                error = "empty sweep key";
                return false;
            }
            out.entries.push_back({SubmitBody::Entry::Kind::Sweep,
                                   key.substr(6), value});
        } else if (key == "arch") {
            out.entries.push_back(
                {SubmitBody::Entry::Kind::Arch, "", value});
        } else {
            error = "unknown submit record '" + key + "'";
            return false;
        }
    }
    if (!have_client || !have_priority) {
        error = "submit payload missing client/priority";
        return false;
    }
    return true;
}

const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
      case RejectReason::InvalidRequest:
        return "invalid-request";
      case RejectReason::QuotaExceeded:
        return "quota-exceeded";
      case RejectReason::Draining:
        return "draining";
      case RejectReason::ProtocolError:
        return "protocol-error";
    }
    return "?";
}

bool
rejectReasonFromName(const std::string &name, RejectReason &out)
{
    for (RejectReason r :
         {RejectReason::InvalidRequest, RejectReason::QuotaExceeded,
          RejectReason::Draining, RejectReason::ProtocolError}) {
        if (name == rejectReasonName(r)) {
            out = r;
            return true;
        }
    }
    return false;
}

std::string
encodeDone(const DoneBody &body, std::string &error)
{
    KvPairs records = {
        {"job", std::to_string(body.jobId)},
        {"scenarios", std::to_string(body.scenarios)},
        {"failures", std::to_string(body.failures)},
        {"cancelled", std::to_string(body.cancelled)},
        {"cache", body.cacheLine},
        {"queue_wait_us", std::to_string(body.queueWaitUs)},
    };
    return encodeKv(records, error);
}

bool
decodeDone(const std::string &payload, DoneBody &out,
           std::string &error)
{
    KvPairs records;
    if (!decodeKv(payload, records, error))
        return false;
    out = DoneBody{};
    for (const auto &[key, value] : records) {
        if (key == "cache") {
            out.cacheLine = value;
            continue;
        }
        std::uint64_t v = 0;
        if (!parseInt(value, v)) {
            error = "malformed done field '" + key + "=" + value +
                    "'";
            return false;
        }
        if (key == "job")
            out.jobId = v;
        else if (key == "scenarios")
            out.scenarios = v;
        else if (key == "failures")
            out.failures = v;
        else if (key == "cancelled")
            out.cancelled = v;
        else if (key == "queue_wait_us")
            out.queueWaitUs = v;
        else {
            error = "unknown done record '" + key + "'";
            return false;
        }
    }
    return true;
}

} // namespace service
} // namespace canon
