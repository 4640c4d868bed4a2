#include "engine/common_flags.hh"

#include <algorithm>
#include <filesystem>

#include <unistd.h>

#include "common/parse.hh"

namespace canon
{
namespace engine
{

namespace
{

using Arg = const std::string &;

/** A path flag's apply: any non-empty value. */
std::string
setPath(const char *flag, Arg value, std::string &out)
{
    if (value.empty())
        return std::string("option '--") + flag + "' expects a path";
    out = value;
    return {};
}

/** The engine rows first: engineFlags() is the first three. */
constexpr Flag<CommonFlags> kCommonFlags[] = {
    {"jobs", true,
     [](CommonFlags &f, Arg v) -> std::string {
         int n = 0;
         if (!parseInt(v, n) || n < 1 || n > 256)
             return "option '--jobs' expects an integer in [1, 256],"
                    " got '" + v + "'";
         f.jobs = n;
         return {};
     }},
    {"cache-dir", true,
     [](CommonFlags &f, Arg v) {
         return setPath("cache-dir", v, f.cacheDir);
     }},
    {"cache", true,
     [](CommonFlags &f, Arg v) {
         f.cacheModeSet = true;
         return cache::parseMode(v, f.cacheMode);
     }},
    {"shard", true,
     [](CommonFlags &f, Arg v) -> std::string {
         std::string err = runner::parseShard(v, f.shard);
         return err.empty() ? err : "option '--shard': " + err;
     }},
    {"sample-every", true,
     [](CommonFlags &f, Arg v) -> std::string {
         int n = 0;
         if (!parseInt(v, n) || n < 1 || n > 1'000'000'000)
             return "option '--sample-every' expects a cycle count in"
                    " [1, 1000000000], got '" + v + "'";
         f.obs.sampleEvery = static_cast<std::uint64_t>(n);
         return {};
     }},
    {"series-out", true,
     [](CommonFlags &f, Arg v) {
         return setPath("series-out", v, f.obs.seriesOut);
     }},
    {"trace-out", true,
     [](CommonFlags &f, Arg v) {
         return setPath("trace-out", v, f.obs.traceOut);
     }},
    {"stats-json", true,
     [](CommonFlags &f, Arg v) {
         return setPath("stats-json", v, f.obs.statsJsonOut);
     }},
    {"cycle-accounting", false,
     [](CommonFlags &f, Arg) {
         f.obs.cycleAccounting = true;
         return std::string();
     }},
    {"host-timers", false,
     [](CommonFlags &f, Arg) {
         f.obs.hostTimers = true;
         return std::string();
     }},
};

} // namespace

std::string
FlagSet::parse(const std::vector<std::string> &args,
               const Apply &positional) const
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (positional && !arg.starts_with('-')) {
            if (std::string err = positional(arg); !err.empty())
                return err;
            continue;
        }

        const std::size_t eq = arg.find('=');
        const std::string spelled = arg.substr(0, eq);
        const std::string_view name =
            spelled == "-h"              ? "help"
            : spelled.starts_with("--") ? std::string_view(spelled).substr(2)
                                         : "";
        const auto flag = std::ranges::find(flags_, name, &Bound::name);
        if (name.empty() || flag == flags_.end())
            return "unknown option '" + spelled + "' (see --help)";

        const std::string option = "option '--" + std::string(name) + "'";
        std::string value;
        if (eq != std::string::npos) {
            if (!flag->takesValue)
                return option + " takes no value";
            value = arg.substr(eq + 1);
        } else if (flag->takesValue) {
            if (i + 1 == args.size())
                return option + " expects a value";
            value = args[++i];
        }
        if (std::string err = flag->apply(value); !err.empty())
            return err;
    }
    return {};
}

std::span<const Flag<CommonFlags>>
commonFlags()
{
    return kCommonFlags;
}

std::span<const Flag<CommonFlags>>
engineFlags()
{
    return commonFlags().first(3);
}

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
    for (const auto &[flag, path] :
         {std::pair{"--series-out", &flags.obs.seriesOut},
          std::pair{"--trace-out", &flags.obs.traceOut},
          std::pair{"--stats-json", &flags.obs.statsJsonOut}})
        if (!path->empty())
            if (std::string err = checkOutputPath(flag, *path);
                !err.empty())
                return err;
    return {};
}

} // namespace engine
} // namespace canon
