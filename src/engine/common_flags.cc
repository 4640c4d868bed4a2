#include "engine/common_flags.hh"

#include <filesystem>

#include <unistd.h>

#include "common/parse.hh"

namespace canon
{
namespace engine
{

namespace
{

/**
 * Fail-fast check for an output path: the parent directory must exist
 * and be writable *now*, so a typo'd --trace-out errors at parse time
 * instead of after the full simulation has run.
 */
std::string
checkOutputPath(const char *flag, const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path p(path);
    fs::path dir = p.parent_path();
    if (dir.empty())
        dir = ".";
    if (!fs::is_directory(dir, ec))
        return std::string("option '") + flag + "': directory '" +
               dir.string() + "' does not exist";
    if (::access(dir.c_str(), W_OK) != 0)
        return std::string("option '") + flag + "': directory '" +
               dir.string() + "' is not writable";
    if (fs::is_directory(p, ec))
        return std::string("option '") + flag + "': '" + path +
               "' is a directory";
    return {};
}

} // namespace

bool
isCommonFlag(const std::string &key)
{
    return key == "--jobs" || key == "--shard" ||
           key == "--cache-dir" || key == "--cache" ||
           key == "--sample-every" || key == "--series-out" ||
           key == "--trace-out" || key == "--stats-json" ||
           isCommonBoolFlag(key);
}

bool
isCommonBoolFlag(const std::string &key)
{
    return key == "--cycle-accounting" || key == "--host-timers";
}

FlagParse
parseCommonFlag(const std::string &key, const std::string &value,
                CommonFlags &out, std::string &error)
{
    if (key == "--jobs") {
        int v = 0;
        if (!parseInt(value, v) || v < 1 || v > 256) {
            error = "option '--jobs' expects an integer in [1, 256],"
                    " got '" + value + "'";
            return FlagParse::Error;
        }
        out.jobs = v;
        return FlagParse::Ok;
    }
    if (key == "--shard") {
        if (std::string err = runner::parseShard(value, out.shard);
            !err.empty()) {
            error = "option '--shard': " + err;
            return FlagParse::Error;
        }
        return FlagParse::Ok;
    }
    if (key == "--cache-dir") {
        if (value.empty()) {
            error = "option '--cache-dir' expects a path";
            return FlagParse::Error;
        }
        out.cacheDir = value;
        return FlagParse::Ok;
    }
    if (key == "--cache") {
        if (std::string err = cache::parseMode(value, out.cacheMode);
            !err.empty()) {
            error = err;
            return FlagParse::Error;
        }
        out.cacheModeSet = true;
        return FlagParse::Ok;
    }
    if (key == "--sample-every") {
        int v = 0;
        if (!parseInt(value, v) || v < 1 || v > 1'000'000'000) {
            error = "option '--sample-every' expects a cycle count in"
                    " [1, 1000000000], got '" + value + "'";
            return FlagParse::Error;
        }
        out.obs.sampleEvery = static_cast<std::uint64_t>(v);
        return FlagParse::Ok;
    }
    if (key == "--series-out") {
        if (value.empty()) {
            error = "option '--series-out' expects a path";
            return FlagParse::Error;
        }
        out.obs.seriesOut = value;
        return FlagParse::Ok;
    }
    if (key == "--trace-out") {
        if (value.empty()) {
            error = "option '--trace-out' expects a path";
            return FlagParse::Error;
        }
        out.obs.traceOut = value;
        return FlagParse::Ok;
    }
    if (key == "--stats-json") {
        if (value.empty()) {
            error = "option '--stats-json' expects a path";
            return FlagParse::Error;
        }
        out.obs.statsJsonOut = value;
        return FlagParse::Ok;
    }
    if (key == "--cycle-accounting" || key == "--host-timers") {
        if (!value.empty()) {
            error = "option '" + key + "' takes no value";
            return FlagParse::Error;
        }
        if (key == "--cycle-accounting")
            out.obs.cycleAccounting = true;
        else
            out.obs.hostTimers = true;
        return FlagParse::Ok;
    }
    return FlagParse::NotCommon;
}

std::string
validateCommonFlags(const CommonFlags &flags)
{
    if (flags.cacheModeSet && flags.cacheDir.empty())
        return "option '--cache' requires --cache-dir";
    if (!flags.obs.seriesOut.empty() && !flags.obs.sampling())
        return "option '--series-out' requires --sample-every";
    if (flags.obs.sampling() && flags.obs.seriesOut.empty() &&
        flags.obs.traceOut.empty() && flags.obs.statsJsonOut.empty())
        return "option '--sample-every' requires an output flag"
               " (--series-out, --trace-out, or --stats-json)";
    if (!flags.obs.seriesOut.empty())
        if (std::string err =
                checkOutputPath("--series-out", flags.obs.seriesOut);
            !err.empty())
            return err;
    if (!flags.obs.traceOut.empty())
        if (std::string err =
                checkOutputPath("--trace-out", flags.obs.traceOut);
            !err.empty())
            return err;
    if (!flags.obs.statsJsonOut.empty())
        if (std::string err =
                checkOutputPath("--stats-json", flags.obs.statsJsonOut);
            !err.empty())
            return err;
    return {};
}

} // namespace engine
} // namespace canon
