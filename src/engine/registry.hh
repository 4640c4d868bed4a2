/**
 * @file
 * The engine's introspection registry: what can run (workloads,
 * models, architectures) and which option keys shape each of them.
 *
 * Everything here is *derived* from the code that executes -- the
 * workloads and their option lists are the CLI's workload table (the
 * relevance matrix that also builds cache keys and guards sweeps),
 * the model list comes from workloads/models.cc's registry, the
 * architecture list from cli::knownArchs, and the sweepable-key list
 * from the CLI's option table itself -- so `canonsim --list`, the
 * docs, and any embedder asking "what can I submit?" cannot drift
 * from what the engine actually accepts. A dedicated drift test
 * round-trips every advertised key through the option applier.
 */

#ifndef CANON_ENGINE_REGISTRY_HH
#define CANON_ENGINE_REGISTRY_HH

#include <string>
#include <vector>

#include "cli/options.hh"

namespace canon
{
namespace engine
{

/** One runnable workload: a row of the CLI's workload table. */
using WorkloadInfo = cli::WorkloadInfo;

/** One runnable model and the option keys it consumes. */
struct ModelInfo
{
    std::string name;
    std::vector<std::string> options;
};

/** Every workload, in CLI declaration order. */
const std::vector<WorkloadInfo> &workloadRegistry();

/** Every predefined model, in Figure-14 order. */
std::vector<ModelInfo> modelRegistry();

/** Every runnable architecture, in the paper's display order. */
const std::vector<std::string> &archRegistry();

/**
 * Every key a --sweep axis (or ScenarioRequest::set) accepts:
 * the scenario keys plus the always-relevant fabric keys.
 */
std::vector<std::string> sweepableOptionKeys();

/** The `canonsim --list` report, rendered from the tables above. */
std::string listText();

} // namespace engine
} // namespace canon

#endif // CANON_ENGINE_REGISTRY_HH
