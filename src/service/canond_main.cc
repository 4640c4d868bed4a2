/**
 * @file
 * canond entry point: parse flags, run the daemon until SIGTERM or
 * SIGINT, drain, and exit 0 only on a clean drain.
 *
 * Shares the --jobs/--cache-dir/--cache grammar with canonsim via
 * engine::parseCommonFlag, so the daemon's engine is configured in
 * exactly the words every other entry point uses.
 */

#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "engine/common_flags.hh"
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
    "  --cache MODE        cache mode: rw|ro|wo (needs --cache-dir)\n"
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

    std::vector<std::string> args(argv + 1, argv + argc);
    engine::CommonFlags flags;
    service::DaemonConfig cfg;

    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string key = args[i], value;
        const std::size_t eq = key.find('=');
        bool have_value = false;
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
            have_value = true;
        }
        auto need = [&]() -> bool {
            if (have_value)
                return true;
            if (i + 1 >= args.size())
                return false;
            value = args[++i];
            return true;
        };

        if (key == "--help" || key == "-h") {
            std::cout << kUsage;
            return 0;
        }

        std::string error;
        if (engine::isCommonFlag(key)) {
            if (!engine::isCommonBoolFlag(key) && !need()) {
                std::cerr << "canond: " << key
                          << " needs a value\n\n" << kUsage;
                return 2;
            }
            if (engine::parseCommonFlag(key, value, flags, error) ==
                engine::FlagParse::Error) {
                std::cerr << "canond: " << error << "\n\n" << kUsage;
                return 2;
            }
            continue;
        }

        int n = 0;
        std::uint64_t quota = 0;
        if (key == "--socket" && need()) {
            cfg.socketPath = value;
        } else if (key == "--max-active" && need() &&
                   parseInt(value, n) && n > 0) {
            cfg.maxActive = n;
        } else if (key == "--job-quota" && need() &&
                   parseInt(value, quota)) {
            cfg.jobQuota = quota;
        } else if (key == "--drain-wait-ms" && need() &&
                   parseInt(value, n) && n >= 0) {
            cfg.drainWaitMs = n;
        } else {
            std::cerr << "canond: bad flag or value '" << args[i]
                      << "'\n\n" << kUsage;
            return 2;
        }
    }

    if (cfg.socketPath.empty()) {
        std::cerr << "canond: --socket is required\n\n" << kUsage;
        return 2;
    }
    std::string error = engine::validateCommonFlags(flags);
    if (!error.empty()) {
        std::cerr << "canond: " << error << "\n\n" << kUsage;
        return 2;
    }

    cfg.jobs = flags.jobs;
    cfg.cacheDir = flags.cacheDir;
    cfg.cacheMode = flags.cacheMode;

    service::Daemon daemon(cfg);
    error = daemon.start();
    if (!error.empty()) {
        std::cerr << "canond: " << error << "\n";
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
