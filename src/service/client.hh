/**
 * @file
 * service::Client -- the embeddable canon-rpc-1 client library that
 * canonctl is a thin shell around.
 *
 * One Client is one connection to a running canond: connect()
 * performs the protocol handshake (and reports the daemon's worker
 * count and cache mode), then each call issues one request and
 * blocks until its terminal reply. submit() streams every Result
 * frame's rendered text to a callback in expansion order as the
 * daemon produces it, so a caller can pipe results while the sweep
 * is still running; the terminal Accepted/Rejected/Done state lands
 * in a SubmitOutcome.
 *
 * The class is deliberately synchronous and single-threaded: the
 * protocol never interleaves replies for one connection, so a
 * blocking read loop is the whole client. Callers wanting
 * concurrency open more Clients -- that is the daemon's multi-tenant
 * model, one connection per tenant.
 */

#ifndef CANON_SERVICE_CLIENT_HH
#define CANON_SERVICE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/protocol.hh"
#include "service/socket.hh"

namespace canon
{
namespace service
{

/** Terminal state of one submit(): rejected, or accepted + done. */
struct SubmitOutcome
{
    bool accepted = false;

    // Accepted path.
    std::uint64_t jobId = 0;
    std::uint64_t scenarios = 0;     //!< expansion size forecast
    std::uint64_t predictedJobs = 0; //!< plan() miss forecast
    DoneBody done;                   //!< valid once accepted

    // Rejected path.
    RejectReason reason = RejectReason::InvalidRequest;
    std::string message;
};

class Client
{
  public:
    Client() = default;

    /**
     * Connect to the daemon socket and run the Hello handshake.
     * Returns an empty string on success, the failure otherwise (a
     * protocol-version mismatch is reported with both names).
     */
    std::string connect(const std::string &socketPath);

    bool connected() const { return fd_.valid(); }
    void close() { fd_.reset(); }

    /**
     * Called once per streamed Result frame, in expansion order:
     * the scenario's expansion index and its rendered text block.
     */
    using ResultFn =
        std::function<void(std::size_t index,
                           const std::string &text)>;

    /**
     * Run one submission to its terminal frame. Returns false (with
     * @p error) only on transport or protocol failure; a Rejected
     * reply is a *successful* call with outcome.accepted == false.
     */
    bool submit(const SubmitBody &body, const ResultFn &onResult,
                SubmitOutcome &outcome, std::string &error);

    /**
     * Dry-run forecast; @p text is the rendered plan table. An
     * invalid request fails with "plan rejected: <message>".
     */
    bool plan(const SubmitBody &body, std::string &text,
              std::string &error);

    /** The engine registry listing, as canonsim --list prints it. */
    bool list(std::string &text, std::string &error);

    /** The daemon's service.* counter report. */
    bool stats(std::string &text, std::string &error);

    /** Cancel job @p jobId; @p found says whether it was live. */
    bool cancel(std::uint64_t jobId, bool &found, std::string &error);

  private:
    bool call(const Frame &request, MsgType reply, std::string &text,
              std::string &error);
    bool readReply(Frame &frame, std::string &error);

    Fd fd_;
    FrameDecoder decoder_;
};

/** canonctl's command line. */
struct CtlArgs
{
    std::string socket;
    std::string command; //!< submit, plan, list, stats or cancel
    SubmitBody body;     //!< the request of submit and plan
    std::uint64_t cancelId = 0;
    bool showHelp = false;
};

/**
 * Parse canonctl's argv (without the program name) into @p out: the
 * flags, then the command and cancel's job id. Unless --help is given,
 * --socket and a known command are required. Returns the usage error,
 * or an empty string.
 */
std::string parseCtlArgs(const std::vector<std::string> &args,
                         CtlArgs &out);

} // namespace service
} // namespace canon

#endif // CANON_SERVICE_CLIENT_HH
