/**
 * @file
 * Machine-readable statistics export: a JSON writer and a CSV
 * writer, so evaluation artifacts are audited from files instead of
 * stdout scraping. Stats flow one way, registry -> snapshot -> file;
 * nothing in the library reads them back.
 *
 * The JSON schema for one run is
 *
 *   {
 *     "schema": "rcnvm-stats-v1",
 *     "label": "<run label>",
 *     "ticks": <run ticks>,
 *     "stats": { "<name>": <value>, ... },
 *     "kinds": { "<name>": "additive" | "scalar", ... }
 *   }
 *
 * `kinds` tells an outside reader which entries it may sum across
 * runs (additive raw counts) and which it must not (scalar derived
 * values: ratios, means, maxima).
 */

#ifndef RCNVM_UTIL_STATS_IO_HH_
#define RCNVM_UTIL_STATS_IO_HH_

#include <iosfwd>
#include <string>

#include "util/stats.hh"
#include "util/types.hh"

namespace rcnvm::util {

/** Escape @p s for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Serialise one run's statistics as a JSON object (schema above). */
void writeStatsJson(std::ostream &os, const StatsMap &stats,
                    const std::string &label = "", Tick ticks = Tick{});

/** Serialise statistics as `label,stat,value` CSV rows (no header;
 *  callers writing multiple runs emit the header once). */
void writeStatsCsv(std::ostream &os, const StatsMap &stats,
                   const std::string &label = "");

} // namespace rcnvm::util

#endif // RCNVM_UTIL_STATS_IO_HH_
