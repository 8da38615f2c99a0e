#include "vmm/debug_port.h"

#include <cstdio>

#include "base/bytes.h"

namespace sevf::vmm {

void
DebugPort::recordData(sim::TimePoint t, std::string label, ByteSpan payload)
{
    taint::TaintSet labels = taint::guardSink(
        taint::Sink::kDebugPort, payload,
        "DebugPort::recordData payload for '" + label + "'");
    if (labels != taint::kNone) {
        // Record mode: keep the event but never the secret bytes.
        label += " <redacted " + std::to_string(payload.size()) +
                 " secret bytes: " + taint::describeLabels(labels) + ">";
    } else {
        label.append(" ").append(toHex(payload));
    }
    events_.push_back({t, std::move(label)});
}

std::string
DebugPort::render() const
{
    std::string out;
    for (const Event &e : events_) {
        char line[160];
        std::snprintf(line, sizeof(line), "[%10.3fms] %s\n",
                      e.time.toMsF(), e.label.c_str());
        out += line;
    }
    return out;
}

} // namespace sevf::vmm
