/**
 * @file
 * Command-line options for the canonsim driver.
 *
 * Parsing is a pure function from an argument vector to either a
 * validated Options value or an error string, so tests can exercise
 * every rejection path without spawning a process. Both "--key value"
 * and "--key=value" spellings are accepted.
 *
 * The scenario vocabulary is declared once, as two tables in
 * options.cc: the option table gives every scenario and fabric key
 * its group, parse rule and canonical text, and the workload table
 * gives every Workload its name, aliases, summary and consumed keys.
 * Every function below that names an option or a workload reads them.
 */

#ifndef CANON_CLI_OPTIONS_HH
#define CANON_CLI_OPTIONS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "engine/common_flags.hh"
#include "workloads/models.hh"

namespace canon
{
namespace cli
{

/** The kernel kinds, declared once beside the model layers. */
using canon::Workload;

struct Options
{
    Workload workload = Workload::Spmm;

    /**
     * When non-empty, run this whole model (Figure 14) through
     * ArchSuite::model instead of the single-shape workload; the
     * shape options are ignored and --sparsity feeds the model's
     * sparsified layers.
     */
    std::string model;

    // Problem shape.
    std::int64_t m = 256;
    std::int64_t k = 256;
    std::int64_t n = 64;
    double sparsity = 0.7;   //!< input (spmm) or mask (sddmm) sparsity
    bool sparsitySet = false; //!< --sparsity given (models: override
                              //!< the canonical per-model sparsity)
    int nmN = 2;             //!< N of N:M structured sparsity
    int nmM = 4;             //!< M of N:M structured sparsity
    std::int64_t window = 64; //!< sddmm-window band width
    std::uint64_t seed = 1;

    /**
     * Fabric configuration (--rows, --cols, --spad, --tag-banks,
     * --spad-flush, --dmem, --clock-ghz); defaults to the paper's
     * Table 1 fabric.
     */
    CanonConfig fabric;

    /** Architectures to run; empty means Canon only. */
    std::vector<std::string> archs;

    /**
     * Raw sweep axes in declaration order: one (key, comma-separated
     * values) pair per --sweep flag. Validated and expanded by the
     * runner subsystem (runner::SweepSpec), not here, so the options
     * layer stays free of the expansion logic.
     */
    std::vector<std::pair<std::string, std::string>> sweepAxes;

    /**
     * The execution flags shared with every other entry point
     * (--jobs worker threads, --shard i/n process slice, --cache-dir
     * / --cache result cache), parsed by the one common grammar in
     * engine::parseCommonFlag. common.jobs of 0 means "not given";
     * canonsim's default is 1 worker.
     */
    engine::CommonFlags common;

    /**
     * Scenario option keys set explicitly on the command line, in
     * appearance order (duplicates kept). The driver warns when a
     * single run sets an option its workload ignores.
     */
    std::vector<std::string> explicitKeys;

    std::string csvPath; //!< also dump the stats table as CSV
    bool showHelp = false;
    bool listWorkloads = false;
    bool dryRun = false; //!< plan + cache forecast, no simulation

    /**
     * Render scratchpad occupancy probe columns (resident-row
     * pressure, resident-cap cycles, tag compares per probe) in the
     * stats tables. Render-only, like --csv: it changes which columns
     * a table shows, never what is simulated or cached.
     */
    bool probeSpad = false;

    /** "spmm 256x256x64 s=0.70" style label for tables/profiles. */
    std::string workloadLabel() const;
};

/**
 * Apply one scenario-shaping option (bare key, no "--" prefix) to
 * @p opt. This is the single grammar shared by parseArgs and the
 * sweep-axis validation in runner::SweepSpec: every key that can be
 * swept is exactly a key this function accepts, i.e. a row of the
 * option table (scenarioOptionKeys()). Returns an empty string on
 * success, otherwise the error message.
 */
std::string applyScenarioOption(Options &opt, const std::string &key,
                                const std::string &value);

struct ParseResult
{
    Options options;
    bool ok = true;
    std::string error;
};

/** Parse argv[1..]; never exits, never prints. */
ParseResult parseArgs(const std::vector<std::string> &args);

/** The --help text. */
const char *usageText();

/**
 * True when --@p key is a real flag outside the scenario grammar: a
 * canonsim-only flag (--arch, --csv, --dry-run, ...) or one of the
 * common execution flags (engine::isCommonFlag). Sweep-axis
 * validation uses it to call such a key "not sweepable" instead of
 * "unknown".
 */
bool isNonScenarioFlag(const std::string &key);

/** One row of the workload table. */
struct WorkloadInfo
{
    Workload workload;
    std::string name;                 //!< canonical CLI spelling
    std::vector<std::string> aliases; //!< other accepted spellings
    std::string summary;              //!< the `--list` description
    /** Keys that shape its result, in canonical (cache-key) order. */
    std::vector<std::string> options;
};

/** Every workload, in declaration order. */
const std::vector<WorkloadInfo> &workloadTable();

/** Canonical name of a Workload ("spmm", "sddmm-window", ...). */
const char *workloadName(Workload w);

/**
 * Every key applyScenarioOption accepts, in canonical order (the
 * scenario selectors and shapes, then the fabric keys). This is the
 * sweepable-option vocabulary the engine registry advertises; a
 * drift test round-trips each key through the option grammar.
 */
const std::vector<std::string> &scenarioOptionKeys();

/** Every runnable architecture, in the paper's display order. */
const std::vector<std::string> &knownArchs();

/**
 * Resolve an --arch selection into @p out: each name must be one of
 * knownArchs(), and "all" selects every architecture. Returns an
 * empty string on success (leaving @p out untouched otherwise), or
 * the "unknown architecture" message.
 */
std::string selectArchs(const std::vector<std::string> &names,
                        std::vector<std::string> &out);

// ---- workload/option relevance matrix ---------------------------------
//
// The single source of truth for which option keys a scenario
// actually consumes. It drives three behaviors: single runs warn on
// explicitly set but ignored options, sweeps reject an axis that no
// selected scenario consumes (instead of silently emitting identical
// rows), and the result cache's ScenarioKey folds in only the
// relevant options so e.g. an spmm result is reusable no matter what
// --nm was set to.

/**
 * Fabric keys relevant to every scenario (rows, cols, spad,
 * tag-banks, spad-flush, dmem, clock-ghz).
 */
const std::vector<std::string> &fabricOptionKeys();

/**
 * The scenario option keys @p opt's selected workload -- or model --
 * actually consumes, in canonical order. A model run returns
 * {"model", ["sparsity",] "seed"} (sparsity only for models with a
 * sparsity knob); a shape run returns its workload table row's keys
 * (e.g. spmm-nm consumes nm but not sparsity, sddmm-window consumes
 * window but not n).
 */
const std::vector<std::string> &relevantScenarioKeys(const Options &opt);

/**
 * True when setting option @p key can change what @p opt computes or
 * reports: fabric keys always, the "model" selector always (it
 * switches between model and shape mode), scenario keys per
 * relevantScenarioKeys.
 */
bool optionRelevant(const Options &opt, const std::string &key);

/**
 * Canonical text of scenario/fabric option @p key's value in @p opt
 * (doubles in shortest round-trip form, nm as "N:M", the model's
 * sparsity as "canonical" when --sparsity was not given).
 */
std::string optionValueText(const Options &opt, const std::string &key);

/**
 * " key=value" for every option that shapes @p opt's simulated
 * result, in canonical order: the keyed fabric options, then
 * relevantScenarioKeys(opt). Render-only options (--clock-ghz, which
 * only scales the time/energy/power cells at display time) are left
 * out, so one cached result serves every clock. This is the option
 * part of cache::scenarioKey.
 */
std::string keyedOptionText(const Options &opt);

} // namespace cli
} // namespace canon

#endif // CANON_CLI_OPTIONS_HH
