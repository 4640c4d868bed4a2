/**
 * @file
 * Scenario requests for the canon::engine façade.
 *
 * A ScenarioRequest is everything one submission to the Engine can
 * say: the workload (or whole model), its shape and sparsity knobs,
 * the fabric configuration, the architecture set, optional sweep axes
 * (the cartesian product expands into one scenario per combination),
 * and the process shard. canonsim builds one from parsed argv
 * (fromOptions, which also carries --shard), while canond submit
 * bodies and embedders spell every option the CLI way through set(),
 * sweep() and archs() -- so all of them get exactly the same
 * validation.
 *
 * Validation happens at construction time, through the same grammar
 * the CLI parser uses (cli::applyScenarioOption and
 * runner::SweepSpec::addAxis), so a request cannot drift from what
 * canonsim accepts: every builder validates immediately and records
 * the first failure, and validate() finishes the job against the
 * per-workload relevance matrix (a sweep axis no expanded scenario
 * consumes is an error; an explicitly set option the selected
 * workload ignores becomes a warning). Error and warning texts are
 * byte-identical to the CLI's, which is asserted by the engine tests.
 *
 * Thread-safety: build a request on one thread, then share it const.
 * validate() caches its verdict into mutable members without
 * synchronization, so either call it once before sharing or leave it
 * to the Engine -- the run/plan entry points validate a private copy
 * and never mutate the caller's request.
 */

#ifndef CANON_ENGINE_REQUEST_HH
#define CANON_ENGINE_REQUEST_HH

#include <string>
#include <vector>

#include "cli/options.hh"
#include "runner/sweep.hh"

namespace canon
{
namespace engine
{

class ScenarioRequest
{
  public:
    /** Defaults: spmm 256x256x64 s=0.7 on the paper fabric, canon. */
    ScenarioRequest() = default;

    /**
     * Adopt already-parsed CLI options (the canonsim adapter). The
     * sweep axes, explicit-key list and shard carry over; axis
     * validation runs immediately, exactly as sweep() would.
     */
    static ScenarioRequest fromOptions(const cli::Options &opt);

    // ---- builders -----------------------------------------------------
    //
    // Every builder validates through the CLI grammar and returns
    // *this for chaining; the first failure is latched and reported
    // by error() (later calls still apply when they are themselves
    // valid).

    /**
     * Apply one scenario/fabric option by its bare CLI key ("m",
     * "nm", "clock-ghz", ...; see cli::scenarioOptionKeys()). A value
     * set() accepts is exactly a value the CLI accepts.
     */
    ScenarioRequest &set(const std::string &key,
                         const std::string &value);

    /**
     * Replace the architecture set. Names are validated against the
     * arch registry; "all" selects every architecture. An empty list
     * means canon only (the Options contract).
     */
    ScenarioRequest &archs(const std::vector<std::string> &names);

    /**
     * Add one sweep axis (comma-separated values). Axes combine as a
     * cartesian product; values are validated now, against the same
     * grammar as the CLI, so expansion later cannot fail.
     */
    ScenarioRequest &sweep(const std::string &key,
                           const std::string &values);

    // ---- validation ---------------------------------------------------

    /**
     * Finish validation: build the sweep expansion and check it
     * against the per-workload relevance matrix. Idempotent and
     * cheap to repeat; Engine::run calls it implicitly. Returns true
     * when the request is runnable.
     */
    bool validate() const;

    /** First validation failure; empty when the request is valid. */
    const std::string &error() const;

    /**
     * Ignored-option notes for a single (no-axis) request: one
     * "option '--X' is ignored by workload 'Y'" line per explicitly
     * set option the selected workload or model does not consume.
     * Filled by validate().
     */
    const std::vector<std::string> &warnings() const;

    // ---- inspection ---------------------------------------------------

    /** The underlying options value (the scenario vocabulary). */
    const cli::Options &options() const { return opt_; }

    /** Number of scenarios the full (unsharded) expansion yields. */
    std::size_t jobCount() const;

    /**
     * The full unsharded expansion, in the deterministic axis order
     * (last-declared axis fastest). Requires a valid request; an
     * invalid one yields an empty list.
     */
    std::vector<runner::SweepJob> expand() const;

  private:
    void invalidate();
    void fail(const std::string &message);

    cli::Options opt_;
    runner::SweepSpec spec_;
    std::string error_;

    // validate() is logically const: it derives state from the
    // builders' inputs without changing what the request means.
    mutable bool validated_ = false;
    mutable std::string validation_error_;
    mutable std::vector<std::string> warnings_;
};

} // namespace engine
} // namespace canon

#endif // CANON_ENGINE_REQUEST_HH
