#include "sim/trace.h"

#include <algorithm>

namespace sevf::sim {

const char *
stepKindName(StepKind kind)
{
    switch (kind) {
      case StepKind::kCpu: return "cpu";
      case StepKind::kPsp: return "psp";
      case StepKind::kNet: return "net";
    }
    return "unknown";
}

Duration
BootTrace::total() const
{
    Duration sum;
    for (const Step &s : steps_) {
        sum += s.duration;
    }
    return sum;
}

Duration
BootTrace::phaseTotal(std::string_view phase) const
{
    Duration sum;
    for (const Step &s : steps_) {
        if (s.phase == phase) {
            sum += s.duration;
        }
    }
    return sum;
}

std::vector<std::string>
BootTrace::phases() const
{
    std::vector<std::string> out;
    for (const Step &s : steps_) {
        if (std::find(out.begin(), out.end(), s.phase) == out.end()) {
            out.push_back(s.phase);
        }
    }
    return out;
}

void
BootTrace::append(const BootTrace &other)
{
    steps_.insert(steps_.end(), other.steps().begin(), other.steps().end());
}

} // namespace sevf::sim
