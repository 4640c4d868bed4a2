/**
 * @file
 * canonctl: the command-line client for a running canond.
 *
 * Streamed result blocks, the per-request cache line, and the done
 * summary go to stdout and are deterministic (byte-identical across
 * clients and daemon worker counts -- the CI service gate diffs
 * them). Job ids and queue-wait times are wall-clock artifacts and
 * go to stderr, so `canonctl submit ... > out.txt` is comparable.
 */

#include <iostream>
#include <string>
#include <vector>

#include "service/client.hh"

namespace
{

const char *kUsage =
    "usage: canonctl --socket PATH COMMAND [args]\n"
    "\n"
    "commands:\n"
    "  submit [--client NAME] [--priority N] SPEC...\n"
    "        run a scenario request; results stream to stdout\n"
    "  plan SPEC...\n"
    "        dry-run cache forecast for the same request\n"
    "  list  the daemon's workload/model/architecture registry\n"
    "  stats the daemon's service.* counters\n"
    "  cancel JOBID\n"
    "        cancel a running job by id\n"
    "\n"
    "request SPEC (applied in order, canonsim option grammar):\n"
    "  --opt KEY=VALUE     one scenario option (workload=spmm, ...)\n"
    "  --sweep KEY=VALUES  one sweep axis (sparsity=0.1,0.5,0.9)\n"
    "  --arch NAME         one architecture (repeatable; 'all')\n";

int
fail(const std::string &message)
{
    std::cerr << "canonctl: " << message << "\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace canon::service;

    CtlArgs args;
    if (const std::string error = parseCtlArgs(
            std::vector<std::string>(argv + 1, argv + argc), args);
        !error.empty()) {
        std::cerr << "canonctl: " << error << "\n\n" << kUsage;
        return 2;
    }
    if (args.showHelp) {
        std::cout << kUsage;
        return 0;
    }
    Client client;
    std::string error = client.connect(args.socket);
    if (!error.empty())
        return fail(error);

    if (args.command == "list" || args.command == "stats") {
        std::string text;
        const bool ok = args.command == "list"
                            ? client.list(text, error)
                            : client.stats(text, error);
        if (!ok)
            return fail(error);
        std::cout << text;
        return 0;
    }

    if (args.command == "cancel") {
        bool found = false;
        if (!client.cancel(args.cancelId, found, error))
            return fail(error);
        std::cout << (found ? "cancelled job "
                            : "no such job ")
                  << args.cancelId << "\n";
        return found ? 0 : 1;
    }

    if (args.command == "plan") {
        std::string text;
        if (!client.plan(args.body, text, error))
            return fail(error);
        std::cout << text;
        return 0;
    }

    SubmitOutcome outcome;
    const bool ok = client.submit(
        args.body,
        [](std::size_t, const std::string &text) {
            std::cout << text;
        },
        outcome, error);
    if (!ok)
        return fail(error);
    if (!outcome.accepted) {
        std::cerr << "canonctl: rejected ("
                  << rejectReasonName(outcome.reason)
                  << "): " << outcome.message << "\n";
        return outcome.reason == RejectReason::InvalidRequest ? 2 : 1;
    }

    // Deterministic summary on stdout; wall-clock facts on stderr.
    if (!outcome.done.cacheLine.empty())
        std::cout << outcome.done.cacheLine << "\n";
    std::cout << "done: " << outcome.done.scenarios << " scenarios, "
              << outcome.done.failures << " failures, "
              << outcome.done.cancelled << " cancelled\n";
    std::cerr << "canonctl: job " << outcome.done.jobId
              << " queue-wait " << outcome.done.queueWaitUs
              << " us\n";
    // Cancelled scenarios are counted among the failures.
    return outcome.done.failures > 0 ? 1 : 0;
}
