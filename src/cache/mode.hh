/**
 * @file
 * Cache access modes shared by canonsim and the figure benches.
 *
 * The mode is parsed by the CLI layers and consumed by
 * cache::ResultStore; it lives in its own dependency-free header so
 * cli/options.hh can hold a Mode without pulling in the store (which
 * itself depends on the options for key building).
 */

#ifndef CANON_CACHE_MODE_HH
#define CANON_CACHE_MODE_HH

#include <cstdint>
#include <string>

namespace canon
{
namespace cache
{

/**
 * How a run uses the result store:
 *  - Off:       ignore the store entirely (even with --cache-dir).
 *  - Read:      satisfy jobs from the store; never write new entries.
 *  - Write:     run every job; fill entries that are missing.
 *  - ReadWrite: consult first, run on miss, store the miss (default).
 *  - Refresh:   run every job and overwrite its entry, fresh or stale.
 */
enum class Mode : std::uint8_t
{
    Off,
    Read,
    Write,
    ReadWrite,
    Refresh,
};

/**
 * Parse the --cache argument (off | read | write | readwrite |
 * refresh). Returns an empty string on success, otherwise the error
 * message; @p out is only written on success.
 */
std::string parseMode(const std::string &text, Mode &out);

} // namespace cache
} // namespace canon

#endif // CANON_CACHE_MODE_HH
