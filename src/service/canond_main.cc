/**
 * @file
 * canond entry point: parse flags, run the daemon until SIGTERM or
 * SIGINT, drain, and exit 0 only on a clean drain.
 *
 * service::parseDaemonArgs shares the --jobs/--cache-dir/--cache
 * grammar with canonsim, so the daemon's engine is configured in
 * exactly the words every other entry point uses.
 */

#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "service/daemon.hh"

namespace
{

canon::service::Daemon *g_daemon = nullptr;

void
onSignal(int)
{
    // Async-signal-safe: requestStop is one atomic store.
    if (g_daemon)
        g_daemon->requestStop();
}

const char *kUsage =
    "usage: canond --socket PATH [options]\n"
    "\n"
    "Serve a shared canon::engine over a Unix-domain socket\n"
    "(protocol canon-rpc-1; talk to it with canonctl).\n"
    "\n"
    "  --socket PATH       listening Unix socket path (required)\n"
    "  --jobs N            engine worker threads (default: hardware)\n"
    "  --cache-dir DIR     shared result-cache directory\n"
    "  --cache MODE        off|read|write|readwrite|refresh\n"
    "                      (default readwrite; needs --cache-dir)\n"
    "  --max-active N      concurrent submissions (default 2)\n"
    "  --job-quota N       reject submissions forecast to simulate\n"
    "                      more than N scenarios (0 = unlimited)\n"
    "  --drain-wait-ms N   drain deadline at shutdown (default 60000)\n"
    "\n"
    "SIGTERM/SIGINT drain in-flight jobs; exit 0 means no job was\n"
    "leaked.\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace canon;

    service::DaemonConfig cfg;
    bool show_help = false;
    const std::string error = service::parseDaemonArgs(
        std::vector<std::string>(argv + 1, argv + argc), cfg, show_help);
    if (!error.empty()) {
        std::cerr << "canond: " << error << "\n\n" << kUsage;
        return 2;
    }
    if (show_help) {
        std::cout << kUsage;
        return 0;
    }

    service::Daemon daemon(cfg);
    if (std::string serr = daemon.start(); !serr.empty()) {
        std::cerr << "canond: " << serr << "\n";
        return 1;
    }

    g_daemon = &daemon;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    std::cerr << "canond: listening on " << cfg.socketPath
              << " (workers=" << daemon.engine().workers()
              << ", cache="
              << (daemon.engine().store() ? "on" : "off") << ")\n";

    daemon.waitForStopRequest();
    std::cerr << "canond: draining\n";
    const int rc = daemon.stop();
    std::cerr << (rc == 0 ? "canond: clean shutdown\n"
                          : "canond: leaked jobs at shutdown\n");
    return rc;
}
