#include "cli/options.hh"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/logging.hh"
#include "common/parse.hh"
#include "workloads/models.hh"

namespace canon
{
namespace cli
{

namespace
{

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    std::istringstream iss(s);
    iss >> out;
    return iss && iss.eof();
}

/**
 * Shortest decimal text that round-trips to exactly @p v, so "0.5",
 * ".50", and "0.50" all canonicalize to "0.5" while distinct doubles
 * stay distinct (17 significant digits always round-trip).
 */
std::string
canonicalDouble(double v)
{
    for (int prec = 1; prec <= 17; ++prec) {
        std::ostringstream oss;
        oss << std::setprecision(prec) << v;
        double back = 0.0;
        std::istringstream iss(oss.str());
        if ((iss >> back) && back == v)
            return oss.str();
    }
    std::ostringstream oss;
    oss << std::setprecision(17) << v;
    return oss.str();
}

bool
contains(const std::vector<std::string> &list, const std::string &s)
{
    return std::find(list.begin(), list.end(), s) != list.end();
}

using Arg = const std::string &;

/** What an option shapes: where it is keyed and when it is relevant. */
enum class OptionGroup : std::uint8_t
{
    Scenario, //!< relevant when the workload or model consumes it
    Fabric,   //!< relevant to every scenario, part of the cache key
    Render,   //!< fabric, but applied at render time: never keyed
};
using enum OptionGroup;

/** One row of the option table. */
struct OptionRule
{
    const char *key;
    OptionGroup group;
    /** Apply @p value to @p opt; empty, or the error message. */
    std::string (*parse)(Options &opt, Arg key, Arg value);
    /** Canonical text of the value in @p opt (cache keys, drift test). */
    std::string (*text)(const Options &opt);
};

/** An option's storage: its Options field, or its fabric field. */
template <typename O, typename T>
auto &
field(O &opt, T Options::*member)
{
    return opt.*member;
}

template <typename O, typename T>
auto &
field(O &opt, T CanonConfig::*member)
{
    return opt.fabric.*member;
}

/** The row of an integer option stored in @p Member, in [Lo, Hi]. */
template <auto Member, std::int64_t Lo, std::int64_t Hi>
constexpr OptionRule
intOption(const char *key, OptionGroup group)
{
    return {key, group,
            [](Options &o, Arg k, Arg v) -> std::string {
                std::int64_t i = 0;
                if (!parseInt(v, i) || i < Lo || i > Hi)
                    return "option '--" + k + "' expects an integer in [" +
                           std::to_string(Lo) + ", " +
                           std::to_string(Hi) + "], got '" + v + "'";
                auto &out = field(o, Member);
                out = static_cast<std::remove_reference_t<decltype(out)>>(i);
                return {};
            },
            [](const Options &o) {
                return std::to_string(field(o, Member));
            }};
}

constexpr std::int64_t kMaxDim = 1'000'000'000;
constexpr std::int64_t kMaxSeed = std::numeric_limits<std::int64_t>::max();

/**
 * The option table: every scenario and fabric key, in canonical
 * order (the order of --list, of fabricOptionKeys() and of the cache
 * key). A new option is one row here, its Options or CanonConfig
 * field, and its --help line.
 */
constexpr OptionRule kOptionTable[] = {
    {"workload", Scenario,
     [](Options &o, Arg, Arg v) -> std::string {
         for (const auto &w : workloadTable()) {
             if (w.name == v || contains(w.aliases, v)) {
                 o.workload = w.workload;
                 return {};
             }
         }
         return "unknown workload '" + v + "' (try --list)";
     },
     [](const Options &o) -> std::string {
         return workloadName(o.workload);
     }},
    {"model", Scenario,
     [](Options &o, Arg, Arg v) -> std::string {
         if (v == "none") { // let a sweep axis restore shape mode
             o.model.clear();
             return {};
         }
         if (contains(knownModelNames(), v)) {
             o.model = v;
             return {};
         }
         std::string names;
         for (const auto &name : knownModelNames())
             names += name + ", ";
         return "unknown model '" + v + "' (" + names + "none)";
     },
     [](const Options &o) {
         return o.model.empty() ? std::string("none") : o.model;
     }},
    intOption<&Options::m, 1, kMaxDim>("m", Scenario),
    intOption<&Options::k, 1, kMaxDim>("k", Scenario),
    intOption<&Options::n, 1, kMaxDim>("n", Scenario),
    {"sparsity", Scenario,
     [](Options &o, Arg, Arg v) -> std::string {
         double s = 0.0;
         // The negated-range form also rejects NaN.
         if (!parseDouble(v, s) || !(s >= 0.0 && s < 1.0))
             return "option '--sparsity' expects a number in [0, 1),"
                    " got '" + v + "'";
         o.sparsity = s;
         o.sparsitySet = true;
         return {};
     },
     [](const Options &o) {
         // Models fall back to their canonical per-model sparsity
         // when --sparsity was not given; that choice, not the
         // dormant o.sparsity value, identifies the scenario.
         return !o.model.empty() && !o.sparsitySet
                    ? std::string("canonical")
                    : canonicalDouble(o.sparsity);
     }},
    {"nm", Scenario,
     [](Options &o, Arg, Arg v) -> std::string {
         const auto colon = v.find(':');
         std::int64_t nm_n = 0, nm_m = 0;
         if (colon == std::string::npos ||
             !parseInt(v.substr(0, colon), nm_n) ||
             !parseInt(v.substr(colon + 1), nm_m) || nm_n < 1 ||
             nm_m < 2 || nm_n > nm_m || nm_m > 64)
             return "option '--nm' expects N:M with"
                    " 1 <= N <= M <= 64, got '" + v + "'";
         o.nmN = static_cast<int>(nm_n);
         o.nmM = static_cast<int>(nm_m);
         return {};
     },
     [](const Options &o) {
         return std::to_string(o.nmN) + ":" + std::to_string(o.nmM);
     }},
    intOption<&Options::window, 1, kMaxDim>("window", Scenario),
    intOption<&Options::seed, 0, kMaxSeed>("seed", Scenario),
    intOption<&CanonConfig::rows, 1, 1024>("rows", Fabric),
    intOption<&CanonConfig::cols, 1, 1024>("cols", Fabric),
    intOption<&CanonConfig::spadEntries, 1, 65536>("spad", Fabric),
    intOption<&CanonConfig::tagBanks, 1, 64>("tag-banks", Fabric),
    {"spad-flush", Fabric,
     [](Options &o, Arg, Arg v) -> std::string {
         if (!parseSpadFlush(v, o.fabric.spadFlush))
             return "option '--spad-flush' expects eager | adaptive,"
                    " got '" + v + "'";
         return {};
     },
     [](const Options &o) -> std::string {
         return spadFlushName(o.fabric.spadFlush);
     }},
    intOption<&CanonConfig::dmemSlots, 1, 1 << 26>("dmem", Fabric),
    // Scales the stored profiles' time/energy/power cells at display
    // time, so one cached result serves every clock.
    {"clock-ghz", Render,
     [](Options &o, Arg, Arg v) -> std::string {
         double ghz = 0.0;
         if (!parseDouble(v, ghz) || !(ghz > 0.0 && ghz <= 100.0))
             return "option '--clock-ghz' expects a number in"
                    " (0, 100], got '" + v + "'";
         o.fabric.clockGhz = ghz;
         return {};
     },
     [](const Options &o) { return canonicalDouble(o.fabric.clockGhz); }},
};

const OptionRule *
findOption(const std::string &key)
{
    for (const auto &rule : kOptionTable)
        if (key == rule.key)
            return &rule;
    return nullptr;
}

/** The keys of the option-table rows that satisfy @p pick. */
template <typename Pick>
std::vector<std::string>
optionKeys(Pick pick)
{
    std::vector<std::string> keys;
    for (const auto &rule : kOptionTable)
        if (pick(rule.group))
            keys.push_back(rule.key);
    return keys;
}

const WorkloadInfo &
workloadInfo(Workload w)
{
    for (const auto &info : workloadTable())
        if (info.workload == w)
            return info;
    panic("no workload table row for Workload ", static_cast<int>(w));
}

/**
 * canonsim's own flags, outside the scenario and common grammars: a
 * value-less flag sets its toggle, a value flag runs its parser.
 */
struct CliFlag
{
    const char *name;
    bool Options::*toggle;
    std::string (*parse)(Options &opt, Arg value);
};

constexpr CliFlag kCliFlags[] = {
    {"help", &Options::showHelp, nullptr},
    {"list", &Options::listWorkloads, nullptr},
    {"dry-run", &Options::dryRun, nullptr},
    {"probe-spad", &Options::probeSpad, nullptr},
    {"arch", nullptr,
     [](Options &o, Arg v) -> std::string {
         // A trailing comma is tolerated; an empty name is not.
         std::vector<std::string> names;
         for (std::string rest = v; !rest.empty();) {
             const auto comma = rest.find(',');
             names.push_back(rest.substr(0, comma));
             rest = comma == std::string::npos ? ""
                                               : rest.substr(comma + 1);
         }
         if (std::string err = selectArchs(names, o.archs); !err.empty())
             return err;
         if (o.archs.empty())
             return "option '--arch' expects at least one architecture";
         return {};
     }},
    {"csv", nullptr,
     [](Options &o, Arg v) -> std::string {
         if (v.empty())
             return "option '--csv' expects a path";
         o.csvPath = v;
         return {};
     }},
    {"sweep", nullptr,
     [](Options &o, Arg v) -> std::string {
         const auto eq = v.find('=');
         if (eq == std::string::npos || eq == 0 || eq + 1 >= v.size())
             return "option '--sweep' expects key=v1[,v2,...], got '" +
                    v + "'";
         o.sweepAxes.emplace_back(v.substr(0, eq), v.substr(eq + 1));
         return {};
     }},
};

const CliFlag *
findCliFlag(const std::string &name)
{
    for (const auto &flag : kCliFlags)
        if (name == flag.name)
            return &flag;
    return nullptr;
}

} // namespace

const std::vector<WorkloadInfo> &
workloadTable()
{
    // A new workload is one row here, its Workload enumerator, and its
    // case in ArchSuite::run.
    static const std::vector<WorkloadInfo> table = {
        {Workload::Gemm, "gemm", {"dense"},
         "dense GEMM (dense-cadence kernel)",
         {"workload", "m", "k", "n", "seed"}},
        {Workload::Spmm, "spmm", {}, "unstructured SpMM",
         {"workload", "m", "k", "n", "sparsity", "seed"}},
        {Workload::SpmmNm, "spmm-nm", {"nm"}, "N:M structured SpMM",
         {"workload", "m", "k", "n", "nm", "seed"}},
        {Workload::Sddmm, "sddmm", {},
         "unstructured SDDMM (--sparsity is the output mask)",
         {"workload", "m", "k", "n", "sparsity", "seed"}},
        {Workload::SddmmWindow, "sddmm-window", {"window"},
         "sliding-window SDDMM (--m is the sequence length,"
         " --n ignored)",
         {"workload", "m", "k", "window", "seed"}},
    };
    return table;
}

const char *
workloadName(Workload w)
{
    return workloadInfo(w).name.c_str();
}

const std::vector<std::string> &
knownArchs()
{
    static const std::vector<std::string> archs = {
        "canon", "systolic", "systolic24", "zed", "cgra"};
    return archs;
}

std::string
selectArchs(const std::vector<std::string> &names,
            std::vector<std::string> &out)
{
    std::vector<std::string> selected;
    for (const auto &name : names) {
        if (name == "all") {
            selected = knownArchs();
            continue;
        }
        if (!contains(knownArchs(), name)) {
            std::string list;
            for (const auto &arch : knownArchs())
                list += arch + ", ";
            return "unknown architecture '" + name + "' (" + list +
                   "all)";
        }
        selected.push_back(name);
    }
    out = std::move(selected);
    return {};
}

bool
isNonScenarioFlag(const std::string &key)
{
    return findCliFlag(key) != nullptr ||
           engine::isCommonFlag("--" + key);
}

std::string
applyScenarioOption(Options &opt, const std::string &key,
                    const std::string &value)
{
    if (const OptionRule *rule = findOption(key))
        return rule->parse(opt, key, value);
    return "unknown option '--" + key + "' (see --help)";
}

std::string
Options::workloadLabel() const
{
    if (!model.empty())
        return model + " model";
    std::ostringstream oss;
    oss << workloadName(workload) << " " << m << "x" << k << "x" << n;
    switch (workload) {
      case Workload::Spmm:
      case Workload::Sddmm:
        oss << " s=" << sparsity;
        break;
      case Workload::SpmmNm:
        oss << " " << nmN << ":" << nmM;
        break;
      case Workload::SddmmWindow:
        oss << " w=" << window;
        break;
      case Workload::Gemm:
        break;
    }
    return oss.str();
}

const std::vector<std::string> &
scenarioOptionKeys()
{
    static const std::vector<std::string> keys =
        optionKeys([](OptionGroup) { return true; });
    return keys;
}

const std::vector<std::string> &
fabricOptionKeys()
{
    static const std::vector<std::string> keys = optionKeys(
        [](OptionGroup g) { return g != Scenario; });
    return keys;
}

const std::vector<std::string> &
relevantScenarioKeys(const Options &opt)
{
    if (opt.model.empty())
        return workloadInfo(opt.workload).options;
    // A model run pins its own layer shapes; only the model selector,
    // its sparsity knob (when it has one), and the RNG seed shape the
    // result.
    static const std::vector<std::string> knob = {"model", "sparsity",
                                                  "seed"};
    static const std::vector<std::string> fixed = {"model", "seed"};
    return modelUsesSparsity(opt.model) ? knob : fixed;
}

bool
optionRelevant(const Options &opt, const std::string &key)
{
    const OptionRule *rule = findOption(key);
    if (rule == nullptr)
        return false;
    // "model" always selects (model=none switches back to shape
    // mode), so it is never an ignored option.
    return rule->group != Scenario || key == "model" ||
           contains(relevantScenarioKeys(opt), key);
}

std::string
optionValueText(const Options &opt, const std::string &key)
{
    const OptionRule *rule = findOption(key);
    return rule ? rule->text(opt) : "?";
}

std::string
keyedOptionText(const Options &opt)
{
    std::string out;
    for (const auto &rule : kOptionTable)
        if (rule.group == Fabric)
            out += " " + std::string(rule.key) + "=" + rule.text(opt);
    for (const auto &key : relevantScenarioKeys(opt))
        out += " " + key + "=" + optionValueText(opt, key);
    return out;
}


const char *
usageText()
{
    // The model menu is derived from knownModelNames() so the help
    // text cannot drift from the registry; the assembled text is
    // cached because callers expect a stable const char *.
    static const std::string text = std::string(
        "canonsim -- unified driver for the Canon orchestration"
        " simulator\n"
        "\n"
        "Usage: canonsim [options]\n"
        "\n"
        "Workload selection:\n"
        "  --workload W      gemm | spmm | spmm-nm | sddmm |"
        " sddmm-window\n"
        "                    (default: spmm)\n"
        "  --model M         run a whole model instead of one shape\n"
        "                    (" + []() {
                                  std::string names;
                                  for (const auto &n :
                                       knownModelNames())
                                      names += n + " | ";
                                  return names;
                              }() + "none;\n"
        "                    --sparsity overrides the canonical\n"
        "                    sparsity of the sparse-layer models;\n"
        "                    window-attention models ignore it)\n"
        "  --m N  --k N  --n N   problem shape (default 256x256x64;\n"
        "                    sddmm-window uses --m as sequence"
        " length)\n"
        "  --sparsity F      input/mask sparsity in [0, 1)"
        " (default 0.7)\n"
        "  --nm N:M          structured sparsity pattern"
        " (default 2:4)\n"
        "  --window N        sliding-window band width (default 64)\n"
        "  --seed N          RNG seed (default 1)\n"
        "\n"
        "Fabric configuration:\n"
        "  --rows N          PE rows / orchestrators (default 8)\n"
        "  --cols N          PE columns (default 8)\n"
        "  --spad N          scratchpad depth in psum entries"
        " (default 16)\n"
        "  --tag-banks N     associative-search banks of the psum-tag\n"
        "                    buffer in [1, 64] (default 1 = the flat\n"
        "                    CAM-style linear probe; results are\n"
        "                    identical, tag compares per probe drop\n"
        "                    ~N-fold)\n"
        "  --spad-flush P    eager | adaptive (default eager =\n"
        "                    flush-at-cap; adaptive drains at a\n"
        "                    high-water mark and paces psum merges so\n"
        "                    per-row cost stays flat at high resident\n"
        "                    row counts, enabling a larger proxy cap)\n"
        "  --dmem N          data-memory Vec4 slots per PE"
        " (default 1024)\n"
        "  --clock-ghz F     clock for power reporting"
        " (default 1.0)\n"
        "\n"
        "Execution mode:\n"
        "  --arch A[,A...]   canon | systolic | systolic24 | zed |"
        " cgra | all\n"
        "                    (default: canon; baselines enable the\n"
        "                    orchestrator-vs-baseline comparison)\n"
        "\n"
        "Sweep mode:\n"
        "  --sweep K=V,V,... sweep option K over the listed values;\n"
        "                    repeatable, axes combine as a cartesian\n"
        "                    product (any workload/fabric key above:\n"
        "                    sparsity, rows, m, model, ...)\n"
        "  --jobs N          worker threads for sweep execution\n"
        "                    (default 1; results are deterministic\n"
        "                    regardless of N)\n"
        "  --shard I/N       run slice I of N of the expanded job\n"
        "                    list (default 0/1 = everything); shard\n"
        "                    CSVs concatenate in order to the full\n"
        "                    CSV (only shard 0 writes the header)\n"
        "\n"
        "Result cache:\n"
        "  --cache-dir PATH  content-addressed result cache; repeated\n"
        "                    scenarios become lookups, an interrupted\n"
        "                    sweep resumes from what is already there,\n"
        "                    and concurrent --jobs/--shard runs share\n"
        "                    one directory safely\n"
        "  --cache MODE      off | read | write | readwrite |"
        " refresh\n"
        "                    (default readwrite; refresh re-runs and\n"
        "                    overwrites existing entries)\n"
        "\n"
        "Observability (instrumentation only; never changes results\n"
        "or cache keys, and all outputs are byte-identical across\n"
        "--jobs values):\n"
        "  --sample-every N  sample fabric counters every N simulated\n"
        "                    cycles (cycle-resolved time series)\n"
        "  --series-out P    write the sampled series as long-form\n"
        "                    CSV (requires --sample-every)\n"
        "  --trace-out P     write a Chrome trace-event JSON (load\n"
        "                    into Perfetto / about://tracing): engine\n"
        "                    scenario spans, sim run spans, cache\n"
        "                    probe/hit/miss/store instants, and -- \n"
        "                    with --sample-every -- counter tracks\n"
        "  --stats-json P    write the canon.stats.v2 dump: per\n"
        "                    scenario, the per-arch activity profiles,\n"
        "                    the full flat fabric stats view of every\n"
        "                    executed simulation run, and -- when\n"
        "                    enabled -- cycle accounting, occupancy\n"
        "                    histograms, and host phase timers\n"
        "  --cycle-accounting\n"
        "                    classify every component-cycle into the\n"
        "                    stall-cause taxonomy (compute / upstream\n"
        "                    empty / backpressure / tag search / drain\n"
        "                    / idle), render the breakdown table, and\n"
        "                    record occupancy histograms\n"
        "  --host-timers     measure host wall-clock phase durations\n"
        "                    per scenario (queue wait, cache probe,\n"
        "                    sim, encode, store; --stats-json only;\n"
        "                    not byte-stable across runs)\n"
        "\n"
        "Output:\n"
        "  --csv PATH        also write the stats table as CSV\n"
        "  --probe-spad      add scratchpad occupancy columns to the\n"
        "                    stats table: mean resident psum rows,\n"
        "                    % cycles at the resident cap, and tag\n"
        "                    compares per buffer probe (canon only)\n"
        "  --dry-run         print the expanded scenario list with\n"
        "                    cache keys and hit/miss forecasts, then\n"
        "                    exit without simulating\n"
        "  --list            list workloads, models, architectures,\n"
        "                    and sweepable options from the engine\n"
        "                    registry, then exit\n"
        "  --help            show this text and exit\n");
    return text.c_str();
}

ParseResult
parseArgs(const std::vector<std::string> &args)
{
    ParseResult res;
    Options &opt = res.options;

    auto fail = [&res](const std::string &msg) {
        res.ok = false;
        res.error = msg;
        return res;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string key = args[i];
        std::string value;
        bool have_value = false;

        if (auto eq = key.find('='); eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
            have_value = true;
        }
        if (key == "-h")
            key = "--help";

        const bool dashed = key.rfind("--", 0) == 0;
        const CliFlag *flag = dashed ? findCliFlag(key.substr(2)) : nullptr;
        if (flag != nullptr && flag->toggle != nullptr) {
            opt.*(flag->toggle) = true;
            continue;
        }

        // Boolean common flags (--cycle-accounting, --host-timers)
        // take no value: offer them before the value lookahead.
        if (!have_value && engine::isCommonBoolFlag(key)) {
            std::string common_err;
            if (engine::parseCommonFlag(key, "", opt.common,
                                        common_err) ==
                engine::FlagParse::Error)
                return fail(common_err);
            continue;
        }

        // Everything else takes a value.
        if (!have_value) {
            if (i + 1 >= args.size())
                return fail("option '" + key + "' expects a value");
            value = args[++i];
        }

        // --jobs/--shard/--cache-dir/--cache: the execution grammar
        // shared with every bench binary (engine::CommonFlags).
        std::string common_err;
        const engine::FlagParse common_parse =
            engine::parseCommonFlag(key, value, opt.common,
                                    common_err);
        if (common_parse == engine::FlagParse::Error)
            return fail(common_err);
        if (common_parse == engine::FlagParse::Ok)
            continue;

        if (flag != nullptr) {
            if (std::string err = flag->parse(opt, value); !err.empty())
                return fail(err);
        } else if (dashed) {
            std::string err =
                applyScenarioOption(opt, key.substr(2), value);
            if (!err.empty())
                return fail(err);
            opt.explicitKeys.push_back(key.substr(2));
        } else {
            return fail("unknown option '" + key + "' (see --help)");
        }
    }

    if (std::string err = engine::validateCommonFlags(opt.common);
        !err.empty())
        return fail(err);

    if (opt.archs.empty())
        opt.archs.push_back("canon");

    return res;
}

} // namespace cli
} // namespace canon
