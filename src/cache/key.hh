/**
 * @file
 * Content-addressed scenario keys.
 *
 * A ScenarioKey is a canonical one-line description of everything
 * that determines a cached result, and nothing else:
 *
 *  - canonsim scenarios (scenarioKey) fold in the schema version, the
 *    requested architecture set (sorted, deduplicated, so the key is
 *    order-insensitive), and cli::keyedOptionText(): the
 *    result-shaping fabric dimensions plus *only* the scenario options
 *    the selected workload or model actually consumes, so `--nm`
 *    never pollutes an spmm key and `--window` never pollutes a gemm
 *    key. Options that only affect rendering (--clock-ghz, applied to
 *    the stored profiles at display time) stay out of the key on
 *    purpose: the same profiles serve every clock.
 *  - figure-bench grid points (figureKey) fold in the schema version,
 *    the binary name, the table title, and the point's axis
 *    assignment; any change to a figure's grid or identity therefore
 *    misses the old entries instead of reusing them.
 *
 * kSchemaVersion is baked into every canonical string: bump it
 * whenever simulator semantics change (cycle accounting, RNG streams,
 * activity counters) and every stale entry becomes unreachable
 * without any cache-walking invalidation pass.
 *
 * The digest is two independent 64-bit FNV-1a passes over the
 * canonical string (128 bits, hex), which names the entry's file; the
 * store re-verifies the full canonical string on every read, so even
 * a digest collision degrades to a cache miss, never to a wrong
 * result.
 */

#ifndef CANON_CACHE_KEY_HH
#define CANON_CACHE_KEY_HH

#include <string>

#include "cli/options.hh"

namespace canon
{
namespace cache
{

/**
 * Simulation-semantics version of every cache entry. Bump on any
 * change that alters what a scenario computes (not on store-format
 * changes; those bump the magic line in store.cc).
 *
 * v2: canon profiles grew the scratchpad occupancy probe counters
 * (tagCompares, spadResidentSum, spadCapCycles); entries cached at
 * v1 would replay without them.
 *
 * v3: the fabric grew the --tag-banks / --spad-flush policy axes
 * (banked tag search, occupancy-adaptive flush) and scenario keys
 * fold them in; under the adaptive policy the derived proxy-row cap
 * is also larger, so cycles/activity of derived-cap scenarios differ
 * from v2 entries.
 */
inline constexpr int kSchemaVersion = 3;

struct ScenarioKey
{
    /** Full canonical description; single line, never empty. */
    std::string canonical;

    /** 32 hex chars: two independent FNV-1a 64 passes. */
    std::string digest() const;

    /** Entry file name under the cache directory. */
    std::string fileName() const { return digest() + ".entry"; }
};

/**
 * Key of one canonsim scenario: @p opt with irrelevant options
 * canonicalized away. Two Options that differ only in options their
 * workload ignores produce the same key.
 */
ScenarioKey scenarioKey(const cli::Options &opt);

/**
 * Key of one figure-bench grid point, identified by the bench binary
 * name, the table title, and the point's "key=value ..." label
 * (empty for a whole-table job).
 */
ScenarioKey figureKey(const std::string &bench,
                      const std::string &table,
                      const std::string &point);

} // namespace cache
} // namespace canon

#endif // CANON_CACHE_KEY_HH
