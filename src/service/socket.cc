#include "service/socket.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace canon
{
namespace service
{

namespace
{

std::string
errnoText(const std::string &what)
{
    return what + ": " + std::strerror(errno);
}

/** Fill a sockaddr_un; false when the path does not fit. */
bool
fillAddr(const std::string &path, sockaddr_un &addr)
{
    if (path.empty() || path.size() >= sizeof(addr.sun_path))
        return false;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

void
Fd::reset(int fd)
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = fd;
}

void
Fd::shutdownRead() const
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RD);
}

void
Fd::shutdownBoth() const
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

Fd
listenUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillAddr(path, addr)) {
        error = "socket path '" + path +
                "' is empty or too long for a Unix socket";
        return Fd();
    }

    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
        error = errnoText("socket");
        return Fd();
    }

    // A stale socket file from a dead daemon would fail the bind;
    // removing it is safe because a live daemon holds the listening
    // socket, not just the path.
    ::unlink(path.c_str());

    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = errnoText("bind '" + path + "'");
        return Fd();
    }
    if (::listen(fd.get(), 64) != 0) {
        error = errnoText("listen '" + path + "'");
        return Fd();
    }
    error.clear();
    return fd;
}

Fd
connectUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillAddr(path, addr)) {
        error = "socket path '" + path +
                "' is empty or too long for a Unix socket";
        return Fd();
    }

    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
        error = errnoText("socket");
        return Fd();
    }
    int rc;
    do {
        rc = ::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        error = errnoText("connect '" + path + "'");
        return Fd();
    }
    error.clear();
    return fd;
}

bool
sendAll(const Fd &fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE here, not
        // as a process-wide SIGPIPE.
        const ssize_t n =
            ::send(fd.get(), bytes.data() + sent, bytes.size() - sent,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendFrame(const Fd &fd, const Frame &frame)
{
    return sendAll(fd, encodeFrame(frame));
}

ReadStatus
readFrame(const Fd &fd, FrameDecoder &decoder, Frame &out,
          std::string &error, int timeout_ms)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    char buf[4096];
    for (;;) {
        switch (decoder.next(out)) {
          case FrameDecoder::Status::Ready:
            return ReadStatus::Frame;
          case FrameDecoder::Status::Error:
            error = std::string("protocol error: ") +
                    decodeErrorName(decoder.error());
            return ReadStatus::Error;
          case FrameDecoder::Status::NeedMore:
            break;
        }
        if (timeout_ms >= 0) {
            // Whole milliseconds left, rounded up so the wait never
            // ends before the deadline.
            const auto left =
                std::chrono::ceil<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
            pollfd pfd{fd.get(), POLLIN, 0};
            const int rc =
                left > 0 ? ::poll(&pfd, 1, static_cast<int>(left)) : 0;
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc < 0) {
                error = errnoText("poll");
                return ReadStatus::Error;
            }
            if (rc == 0)
                return ReadStatus::Timeout;
        }
        const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = errnoText("recv");
            return ReadStatus::Error;
        }
        if (n == 0) {
            if (decoder.pendingBytes() != 0) {
                error = "connection closed mid-frame";
                return ReadStatus::Error;
            }
            return ReadStatus::Eof;
        }
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
}

} // namespace service
} // namespace canon
