/**
 * @file
 * Launch-report export: serialize a LaunchResult (phases, steps,
 * measurement, attestation outcome) to JSON for external plotting -
 * the counterpart of the paper artifact's severifast/data directory -
 * or render its boot timeline as text.
 */
#ifndef SEVF_CORE_REPORT_H_
#define SEVF_CORE_REPORT_H_

#include <string>

#include "core/launch.h"

namespace sevf::core {

/**
 * JSON document for @p result: strategy, totals, per-phase times, the
 * full step list, launch digest, and attestation fields.
 *
 * @param include_steps emit the per-step array (can be long)
 */
std::string launchResultToJson(const LaunchResult &result,
                               bool include_steps = true);

/**
 * The §6.1 debug-port timeline of @p trace: one "[    4.000ms] label"
 * line per step, stamped with the step's virtual end time.
 */
std::string renderTimeline(const sim::BootTrace &trace);

} // namespace sevf::core

#endif // SEVF_CORE_REPORT_H_
