#include "engine/request.hh"

#include <algorithm>

namespace canon
{
namespace engine
{

ScenarioRequest
ScenarioRequest::fromOptions(const cli::Options &opt)
{
    ScenarioRequest req;
    req.opt_ = opt;
    // Validate the carried-over axes now, exactly as sweep() would
    // have; the first failure is latched like any builder failure.
    for (const auto &[key, values] : opt.sweepAxes) {
        if (std::string err = req.spec_.addAxis(key, values);
            !err.empty()) {
            req.fail(err);
            break;
        }
    }
    return req;
}

void
ScenarioRequest::invalidate()
{
    validated_ = false;
}

void
ScenarioRequest::fail(const std::string &message)
{
    if (error_.empty())
        error_ = message;
    invalidate();
}

ScenarioRequest &
ScenarioRequest::set(const std::string &key, const std::string &value)
{
    if (std::string err = cli::applyScenarioOption(opt_, key, value);
        !err.empty()) {
        fail(err);
        return *this;
    }
    opt_.explicitKeys.push_back(key);
    invalidate();
    return *this;
}

ScenarioRequest &
ScenarioRequest::archs(const std::vector<std::string> &names)
{
    if (std::string err = cli::selectArchs(names, opt_.archs);
        !err.empty())
        fail(err);
    invalidate();
    return *this;
}

ScenarioRequest &
ScenarioRequest::sweep(const std::string &key,
                       const std::string &values)
{
    opt_.sweepAxes.emplace_back(key, values);
    if (std::string err = spec_.addAxis(key, values); !err.empty())
        fail(err);
    invalidate();
    return *this;
}

bool
ScenarioRequest::validate() const
{
    if (!error_.empty())
        return false;
    if (validated_)
        return validation_error_.empty();
    validated_ = true;
    validation_error_.clear();
    warnings_.clear();

    const std::vector<runner::SweepJob> jobs = spec_.expand(opt_);

    // Per-workload relevance guard (the PR-4 matrix): an axis no
    // expanded scenario consumes would only repeat identical rows, so
    // it is a usage error. The canonical cases: any shape axis when
    // every scenario runs a model, sparsity with gemm/spmm-nm, window
    // without sddmm-window, n with only sddmm-window.
    for (const auto &[axis_key, axis_values] : opt_.sweepAxes) {
        (void)axis_values;
        const bool consumed = std::any_of(
            jobs.begin(), jobs.end(),
            [&key = axis_key](const runner::SweepJob &job) {
                return cli::optionRelevant(job.options, key);
            });
        if (!consumed) {
            validation_error_ =
                "sweep axis '" + axis_key +
                "' has no effect: every scenario in this sweep"
                " ignores it (see the per-workload option table in"
                " --list; include 'none' in a model axis to mix"
                " model and shape scenarios)";
            return false;
        }
    }

    // Single requests collect -- once per offending key -- a note for
    // every explicitly set option the selected workload or model
    // ignores (`--nm` with spmm, `--sparsity` with window attention).
    if (opt_.sweepAxes.empty()) {
        for (const auto &key : opt_.explicitKeys) {
            const std::string note =
                "option '--" + key + "' is ignored by " +
                (opt_.model.empty()
                     ? "workload '" +
                           std::string(
                               cli::workloadName(opt_.workload)) +
                           "'"
                     : "model '" + opt_.model + "'");
            if (cli::optionRelevant(opt_, key) ||
                std::find(warnings_.begin(), warnings_.end(), note) !=
                    warnings_.end())
                continue;
            warnings_.push_back(note);
        }
    }
    return true;
}

const std::string &
ScenarioRequest::error() const
{
    return error_.empty() ? validation_error_ : error_;
}

const std::vector<std::string> &
ScenarioRequest::warnings() const
{
    return warnings_;
}

std::size_t
ScenarioRequest::jobCount() const
{
    return spec_.jobCount();
}

std::vector<runner::SweepJob>
ScenarioRequest::expand() const
{
    if (!validate())
        return {};
    return spec_.expand(opt_);
}

} // namespace engine
} // namespace canon
