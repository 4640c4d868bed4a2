/**
 * @file
 * Thin POSIX Unix-domain stream-socket helpers shared by the daemon
 * and the client library: RAII fd ownership, listen/connect on a
 * filesystem path, full-buffer sends, and blocking framed reads
 * layered on the protocol's incremental FrameDecoder.
 *
 * Everything here is blocking and local; canond's concurrency comes
 * from one handler thread per connection, not from non-blocking
 * I/O. EINTR is retried everywhere, so a signal aimed at the
 * process (SIGTERM for graceful drain) never corrupts a stream
 * mid-frame.
 */

#ifndef CANON_SERVICE_SOCKET_HH
#define CANON_SERVICE_SOCKET_HH

#include <string>

#include "service/protocol.hh"

namespace canon
{
namespace service
{

/** Owning file descriptor; -1 means empty. Move-only. */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }

    Fd(Fd &&other) noexcept : fd_(other.release()) {}
    Fd &operator=(Fd &&other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = other.release();
        }
        return *this;
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    int release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

    void reset(int fd = -1);

    /** shutdown(2) the read side: wakes a blocked reader with EOF. */
    void shutdownRead() const;

  private:
    int fd_ = -1;
};

/**
 * Bind + listen on @p path (removing a stale socket file first).
 * Returns an invalid Fd and sets @p error on failure. Paths must fit
 * sockaddr_un (~100 bytes); longer paths are reported, not
 * truncated.
 */
Fd listenUnix(const std::string &path, std::string &error);

/** Connect to a listening Unix socket at @p path. */
Fd connectUnix(const std::string &path, std::string &error);

/** Write all of @p bytes; false on any error (peer gone, ...). */
bool sendAll(const Fd &fd, const std::string &bytes);

/** Encode and send one frame. */
bool sendFrame(const Fd &fd, const Frame &frame);

/** Outcome of one blocking framed read. */
enum class ReadStatus
{
    Frame,  //!< @p out holds the next frame
    Eof,    //!< peer closed (or shutdownRead) between frames
    Error,  //!< I/O failure or protocol decode error; see message
};

/**
 * Block until the decoder yields the next frame from @p fd. EOF in
 * the middle of a frame is an Error (truncated stream), between
 * frames a clean Eof. On Error, @p error carries the reason
 * (including the typed DecodeError name for protocol violations).
 */
ReadStatus readFrame(const Fd &fd, FrameDecoder &decoder, Frame &out,
                     std::string &error);

} // namespace service
} // namespace canon

#endif // CANON_SERVICE_SOCKET_HH
