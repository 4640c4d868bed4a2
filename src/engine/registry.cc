#include "engine/registry.hh"

#include <sstream>

#include "workloads/models.hh"

namespace canon
{
namespace engine
{

namespace
{

std::string
pad(const std::string &s, std::size_t width)
{
    return s.size() >= width
               ? s + " "
               : s + std::string(width - s.size(), ' ');
}

std::string
join(const std::vector<std::string> &items)
{
    std::string out;
    for (const auto &item : items) {
        if (!out.empty())
            out += " ";
        out += item;
    }
    return out;
}

} // namespace

const std::vector<WorkloadInfo> &
workloadRegistry()
{
    return cli::workloadTable();
}

std::vector<ModelInfo>
modelRegistry()
{
    std::vector<ModelInfo> out;
    for (const auto &name : knownModelNames()) {
        cli::Options opt;
        opt.model = name;
        out.push_back({name, cli::relevantScenarioKeys(opt)});
    }
    return out;
}

const std::vector<std::string> &
archRegistry()
{
    return cli::knownArchs();
}

std::vector<std::string>
sweepableOptionKeys()
{
    return cli::scenarioOptionKeys();
}

std::string
listText()
{
    std::ostringstream oss;
    oss << "Workloads (--workload W; each consumes exactly the"
           " listed options):\n";
    for (const auto &w : workloadRegistry())
        oss << "  " << pad(w.name, 14) << pad(join(w.options), 31)
            << w.summary << "\n";

    oss << "\nModels (--model M; layer shapes are pinned by the"
           " model):\n";
    for (const auto &m : modelRegistry())
        oss << "  " << pad(m.name, 16) << join(m.options) << "\n";

    oss << "\nArchitectures (--arch A[,A...]): "
        << join(archRegistry()) << "\n";

    oss << "\nSweepable options (--sweep K=V1,V2,...):\n  "
        << join(sweepableOptionKeys()) << "\n";
    oss << "Fabric options (relevant to every scenario): "
        << join(cli::fabricOptionKeys()) << "\n";
    return oss.str();
}

} // namespace engine
} // namespace canon
