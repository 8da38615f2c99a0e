/**
 * @file
 * Metric exporters: Prometheus text exposition and a JSON snapshot.
 *
 * Both render the same Registry::snapshot(), so a metric appears in
 * either export iff it was registered — obs/families.h declares the
 * full inventory, and tools/sevf_obscheck.cc holds docs/OBSERVABILITY.md
 * to it. The Chrome-trace exporter lives in obs/span.h; the file
 * writers here are what `sevf_boot --trace-out/--metrics-out` and the
 * bench ObsSession hook call.
 */
#ifndef SEVF_OBS_EXPORT_H_
#define SEVF_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "base/status.h"

namespace sevf::obs {

/**
 * Prometheus text exposition format (# HELP / # TYPE headers, one
 * sample line per series, histograms as _bucket{le=...}/_sum/_count).
 * Counters/gauges that were registered but never touched still appear
 * with value 0 — absence means "not registered", never "zero".
 */
std::string exportPrometheus();

/**
 * JSON snapshot of every metric: an array of {name, kind, help, labels,
 * value | {buckets, sum, count}} objects. Parseable with
 * stats::parseJson (that round trip is under test).
 */
std::string exportMetricsJson();

/**
 * Write the metrics to @p path, choosing the format by extension:
 * ".json" gets exportMetricsJson(), anything else (".prom", ".txt")
 * gets the Prometheus text format.
 */
Status writeMetricsFile(std::string_view path);

/** Write exportChromeTrace() to @p path. */
Status writeTraceFile(std::string_view path);

} // namespace sevf::obs

#endif // SEVF_OBS_EXPORT_H_
