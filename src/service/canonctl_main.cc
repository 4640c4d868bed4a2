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

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.hh"
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
fail(const std::string &message, int code = 1)
{
    std::cerr << "canonctl: " << message << "\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace canon::service;

    std::vector<std::string> args(argv + 1, argv + argc);
    std::string socket, command;
    SubmitBody body;
    std::uint64_t cancel_id = 0;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](std::string &out) -> bool {
            if (i + 1 >= args.size())
                return false;
            out = args[++i];
            return true;
        };
        auto splitKv = [](const std::string &text, std::string &key,
                          std::string &val) -> bool {
            const std::size_t eq = text.find('=');
            if (eq == std::string::npos || eq == 0)
                return false;
            key = text.substr(0, eq);
            val = text.substr(eq + 1);
            return true;
        };

        std::string v, key, val;
        if (arg == "--help" || arg == "-h") {
            std::cout << kUsage;
            return 0;
        } else if (arg == "--socket") {
            if (!value(socket))
                return fail("--socket needs a value", 2);
        } else if (arg == "--client") {
            if (!value(v))
                return fail("--client needs a value", 2);
            body.client = v;
        } else if (arg == "--priority") {
            if (!value(v))
                return fail("--priority needs a value", 2);
            if (!canon::parseInt(v, body.priority))
                return fail("bad --priority '" + v + "'", 2);
        } else if (arg == "--opt") {
            if (!value(v) || !splitKv(v, key, val))
                return fail("--opt needs KEY=VALUE", 2);
            body.opt(key, val);
        } else if (arg == "--sweep") {
            if (!value(v) || !splitKv(v, key, val))
                return fail("--sweep needs KEY=VALUES", 2);
            body.sweep(key, val);
        } else if (arg == "--arch") {
            if (!value(v))
                return fail("--arch needs a value", 2);
            body.arch(v);
        } else if (command.empty() && !arg.empty() && arg[0] != '-') {
            command = arg;
        } else if (command == "cancel" && cancel_id == 0 &&
                   !arg.empty() && arg[0] != '-') {
            if (!canon::parseInt(arg, cancel_id))
                return fail("bad job id '" + arg + "'", 2);
        } else {
            std::cerr << "canonctl: bad argument '" << arg << "'\n\n"
                      << kUsage;
            return 2;
        }
    }

    if (socket.empty())
        return fail("--socket is required", 2);
    if (command.empty()) {
        std::cerr << "canonctl: no command\n\n" << kUsage;
        return 2;
    }

    Client client;
    std::string error = client.connect(socket);
    if (!error.empty())
        return fail(error);

    if (command == "list" || command == "stats") {
        std::string text;
        const bool ok = command == "list"
                            ? client.list(text, error)
                            : client.stats(text, error);
        if (!ok)
            return fail(error);
        std::cout << text;
        return 0;
    }

    if (command == "cancel") {
        if (cancel_id == 0)
            return fail("cancel needs a job id", 2);
        bool found = false;
        if (!client.cancel(cancel_id, found, error))
            return fail(error);
        std::cout << (found ? "cancelled job "
                            : "no such job ")
                  << cancel_id << "\n";
        return found ? 0 : 1;
    }

    if (command == "plan") {
        std::string text;
        if (!client.plan(body, text, error))
            return fail(error);
        std::cout << text;
        return 0;
    }

    if (command != "submit") {
        std::cerr << "canonctl: unknown command '" << command
                  << "'\n\n" << kUsage;
        return 2;
    }

    SubmitOutcome outcome;
    const bool ok = client.submit(
        body,
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
