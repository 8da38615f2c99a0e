/**
 * @file
 * Per-layer attribution of a traced benchmark window.
 *
 * Reads the program's own span log (obs::TraceLog) and groups wall
 * spans into the repository's module layers. Self time is computed per
 * thread: a span's duration minus the children recorded on the same
 * thread. Spans that a base::parallelFor worker records under a launch
 * (a different thread than the launch's) count as that layer's worker
 * busy time, never as launching-thread time. The `launch` span's own
 * self time is the residual: host work inside a launch that no existing
 * span names.
 */
#ifndef SEVF_PERFBENCH_LAYER_TABLE_H_
#define SEVF_PERFBENCH_LAYER_TABLE_H_

#include <map>
#include <string>
#include <vector>

#include "obs/span.h"

namespace sevf::perfbench {

/** Module layer of a wall span name ("xex.encrypt" -> "crypto"). */
std::string layerOf(const std::string &span_name);

struct LayerRow {
    /** Self time on the thread that ran the enclosing launch. */
    double launching_ns = 0;
    /** Self time on parallelFor workers inside a launch. */
    double worker_ns = 0;
    /** Self time of spans outside any launch (submit path, capture). */
    double outside_ns = 0;
    u64 spans = 0;
};

struct LayerTable {
    /** Keyed by layer name; "core" holds the residual. */
    std::map<std::string, LayerRow> layers;
    /** Inclusive duration per span name, summed over all threads. */
    std::map<std::string, double> inclusive_ns;
    std::map<std::string, u64> span_count;
    /** Number and summed duration of outermost `launch` spans. */
    u64 launches = 0;
    double launch_ns = 0;
    /** Launching-thread self time of the named (non-residual) spans. */
    double launching_self_ns = 0;
    /** `launch` + `launch_from_template` self time (the residual). */
    double unattributed_ns = 0;

    /** |self + residual - launch| / launch; 0 when exact. */
    double reconcileError() const;
};

/** Attribute every wall span in @p events (other kinds are skipped). */
LayerTable buildLayerTable(const std::vector<obs::TraceEvent> &events);

} // namespace sevf::perfbench

#endif // SEVF_PERFBENCH_LAYER_TABLE_H_
