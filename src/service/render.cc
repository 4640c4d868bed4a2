#include "service/render.hh"

#include "common/parse.hh"
#include "runner/aggregate.hh"

namespace canon
{
namespace service
{

engine::ScenarioRequest
requestFromSubmit(const SubmitBody &body)
{
    engine::ScenarioRequest req;
    std::vector<std::string> archs;
    for (const auto &e : body.entries) {
        switch (e.kind) {
          case SubmitBody::Entry::Kind::Opt:
            req.set(e.key, e.value);
            break;
          case SubmitBody::Entry::Kind::Sweep:
            req.sweep(e.key, e.value);
            break;
          case SubmitBody::Entry::Kind::Arch:
            archs.push_back(e.value);
            break;
        }
    }
    if (!archs.empty())
        req.archs(archs);
    return req;
}

std::string
renderScenarioText(const runner::ScenarioResult &r)
{
    std::string out = "scenario " + std::to_string(r.job.index) +
                      ": " + r.job.options.workloadLabel() + " [" +
                      (r.job.point.empty() ? "-" : r.job.point) +
                      "]\n";
    if (!r.error.empty()) {
        out += "  error: " + r.error + "\n";
        return out;
    }

    const std::vector<std::string> &header =
        runner::statsHeader(r.job.options.probeSpad);
    for (const auto &row : runner::archRows(r.job.options, r.cases)) {
        out += "  " + row.arch + ":";
        for (std::size_t c = 0; c < row.cells.size(); ++c)
            out += " " + header[c] + "=" + row.cells[c];
        out += "\n";
    }
    return out;
}

std::string
encodeResultFrame(std::size_t index, const runner::ScenarioResult &r)
{
    // One "index=N" record line, a blank separator, then the
    // rendered block verbatim (it contains newlines, so it cannot
    // ride the kv format).
    return "index=" + std::to_string(index) + "\n\n" +
           renderScenarioText(r);
}

bool
decodeResultFrame(const std::string &payload, std::size_t &index,
                  std::string &text, std::string &error)
{
    const std::size_t line_end = payload.find('\n');
    if (line_end == std::string::npos ||
        payload.rfind("index=", 0) != 0 ||
        line_end + 1 >= payload.size() ||
        payload[line_end + 1] != '\n') {
        error = "malformed result frame";
        return false;
    }
    const std::string num = payload.substr(6, line_end - 6);
    if (!parseInt(num, index)) {
        error = "malformed result index '" + num + "'";
        return false;
    }
    text = payload.substr(line_end + 2);
    error.clear();
    return true;
}

std::string
renderPlanText(const std::vector<engine::ScenarioPlan> &plans,
               bool cached)
{
    std::string out;
    std::size_t hits = 0, misses = 0;
    for (const auto &p : plans) {
        hits += p.forecast == engine::ScenarioPlan::Forecast::Hit;
        misses += p.forecast != engine::ScenarioPlan::Forecast::Hit;
        out += "plan " + std::to_string(p.job.index) + ": " +
               p.job.options.workloadLabel() + " [" +
               (p.job.point.empty() ? "-" : p.job.point) + "] key=" +
               p.key.digest() + " forecast=" +
               engine::forecastName(p.forecast) + "\n";
    }
    if (cached)
        out += "plan forecast: " + std::to_string(hits) + " hits, " +
               std::to_string(misses) +
               " misses; simulation jobs to execute: " +
               std::to_string(misses) + "\n";
    else
        out += "plan forecast: uncached; simulation jobs to"
               " execute: " +
               std::to_string(plans.size()) + "\n";
    return out;
}

} // namespace service
} // namespace canon
