/**
 * @file
 * Lossless text codecs for the two payload shapes the result store
 * holds: a canonsim CaseResult (per-architecture ExecutionProfiles)
 * and a figure bench's emitted table rows.
 *
 * Both codecs round-trip exactly -- profiles are integer counters
 * plus strings, and row cells are stored length-prefixed so commas,
 * quotes, and even newlines survive -- which is what makes a
 * warm-cache rerun byte-identical to the run that filled the cache.
 * Decoders are strict: any structural mismatch returns false and the
 * caller treats the entry as a miss (or reports corruption), never
 * as a partial result.
 */

#ifndef CANON_CACHE_PAYLOAD_HH
#define CANON_CACHE_PAYLOAD_HH

#include <string>
#include <string_view>
#include <vector>

#include "workloads/suite.hh"

namespace canon
{
namespace cache
{

/** Rows of rendered table cells (the bench FigureRows shape). */
using RowTable = std::vector<std::vector<std::string>>;

/** Serialize a CaseResult; the inverse of decodeCaseResult. */
std::string encodeCaseResult(const CaseResult &cases);

/**
 * Parse @p payload into @p out. Returns false (leaving @p out
 * unspecified) on any structural error, including an entry name that
 * is not an Arch's or that its "arch" line does not repeat, an
 * activity name that is not an Activity's, a name repeated within
 * one entry, or a value that does not fit 64 bits.
 */
bool decodeCaseResult(std::string_view payload, CaseResult &out);

/** Serialize table rows; cells are length-prefixed (any bytes). */
std::string encodeRows(const RowTable &rows);

/** Parse @p payload into @p out; false on any structural error. */
bool decodeRows(std::string_view payload, RowTable &out);

} // namespace cache
} // namespace canon

#endif // CANON_CACHE_PAYLOAD_HH
