/**
 * @file
 * The command-line grammar of every canon binary: each lists its flags
 * as Flag tables and hands argv to FlagSet::parse, the one place that
 * splits "--name=value" and words a usage error, so spellings and
 * messages cannot drift between binaries. The common table holds the
 * ten execution flags (workers, shard, result cache, observability)
 * canonsim, the 13 figure benches and embedders configure an Engine
 * from. The header is a leaf: it depends only on the shard, cache-mode
 * and obs option value types, never on the simulator.
 */

#ifndef CANON_ENGINE_COMMON_FLAGS_HH
#define CANON_ENGINE_COMMON_FLAGS_HH

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/mode.hh"
#include "obs/options.hh"
#include "runner/shard.hh"

namespace canon
{
namespace engine
{

/** One row of a flag table, in the option-table style of cli/options.cc. */
template <typename T>
struct Flag
{
    const char *name; //!< without the leading "--"
    bool takesValue;
    /** Apply @p value ("" when the flag takes none); empty, or the error. */
    std::string (*apply)(T &out, const std::string &value);
};

/**
 * The flags one binary accepts, each bound to the value it writes;
 * @p rows and @p out given to add() must outlive the set.
 */
class FlagSet
{
  public:
    using Apply = std::function<std::string(const std::string &)>;

    /** Every binary has --help (and -h): it sets @p help. */
    explicit FlagSet(bool &help)
    {
        add("help", false, [&help](const std::string &) {
            help = true;
            return std::string();
        });
    }

    /** Add one flag. */
    FlagSet &add(std::string_view name, bool takes_value, Apply apply)
    {
        flags_.push_back({name, takes_value, std::move(apply)});
        return *this;
    }

    /** Add every row of @p rows, applied to @p out. */
    template <typename Rows, typename T>
    FlagSet &add(const Rows &rows, T &out)
    {
        for (const Flag<T> &row : rows)
            add(row.name, row.takesValue,
                [&row, &out](const std::string &v) {
                    return row.apply(out, v);
                });
        return *this;
    }

    /**
     * Apply @p args (argv without the program name) in order and
     * return the first error, or an empty string. "--name value" and
     * "--name=value" are one flag, "-h" is "--help", and a value is
     * the next argument whatever it looks like. An argument that does
     * not start with '-' goes to @p positional when there is one; any
     * other is an unknown option. The errors:
     *   unknown option 'X' (see --help)
     *   option '--X' expects a value
     *   option '--X' takes no value
     * and whatever an apply function returns.
     */
    std::string parse(const std::vector<std::string> &args,
                      const Apply &positional = {}) const;

  private:
    struct Bound
    {
        std::string_view name;
        bool takesValue;
        Apply apply;
    };
    std::vector<Bound> flags_;
};

struct CommonFlags
{
    /**
     * Worker threads for batch execution; 0 means "the entry point's
     * default" (canonsim: 1; figure benches: the binary's declared
     * default, falling back to hardware concurrency).
     */
    int jobs = 0;

    /** This process's slice of the expanded job list (--shard i/n). */
    runner::Shard shard;

    /**
     * Content-addressed result cache directory (src/cache). Empty
     * disables caching; a non-empty directory is shared safely by
     * concurrent --jobs workers and separate --shard processes.
     */
    std::string cacheDir;
    cache::Mode cacheMode = cache::Mode::ReadWrite;

    /** --cache given explicitly (it requires --cache-dir). */
    bool cacheModeSet = false;

    /**
     * Observability: --sample-every, --series-out, --trace-out, and
     * --stats-json. Instrumentation-only; never part of the scenario
     * cache key and never changes simulated results.
     */
    obs::ObsOptions obs;
};

/**
 * The ten common flags: --jobs, --cache-dir, --cache, --shard and the
 * observability flags --sample-every, --series-out, --trace-out,
 * --stats-json, --cycle-accounting and --host-timers.
 */
std::span<const Flag<CommonFlags>> commonFlags();

/** The rows of commonFlags() that configure an Engine (canond's). */
std::span<const Flag<CommonFlags>> engineFlags();

/**
 * Cross-flag validation, called once after the last flag: --cache
 * without --cache-dir, --series-out without --sample-every, and
 * --sample-every without any output flag are usage errors, and every
 * obs output path (--series-out/--trace-out/--stats-json) must pass
 * checkOutputPath. Returns an empty string on success, otherwise the
 * message.
 */
std::string validateCommonFlags(const CommonFlags &flags);

/**
 * Fail-fast check for the output path of option @p flag: the parent
 * directory must exist and be writable *now*, so a typo'd path errors
 * at parse time instead of after the full simulation has run. Returns
 * an empty string on success, otherwise the message.
 */
std::string checkOutputPath(const char *flag, const std::string &path);

} // namespace engine
} // namespace canon

#endif // CANON_ENGINE_COMMON_FLAGS_HH
