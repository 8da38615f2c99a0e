#include "layer_table.h"

#include <cmath>
#include <unordered_map>

namespace sevf::perfbench {

namespace {

constexpr const char *kLaunchSpan = "launch";
constexpr const char *kWarmLaunchSpan = "launch_from_template";
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

} // namespace

std::string
layerOf(const std::string &span_name)
{
    static const std::map<std::string, std::string> kByPrefix = {
        {"xex", "crypto"},        {"measurement", "crypto"},
        {"lz4", "compress"},      {"psp", "psp"},
        {"guest_memory", "memory"}, {"cache", "cache"},
        {"service", "service"},   {"retry", "fault"},
        {"fault", "fault"},       {"warm_pool", "core"},
        {kLaunchSpan, "core"},    {kWarmLaunchSpan, "core"},
    };
    std::string prefix = span_name.substr(0, span_name.find('.'));
    auto it = kByPrefix.find(prefix);
    return it == kByPrefix.end() ? "other" : it->second;
}

double
LayerTable::reconcileError() const
{
    if (launch_ns <= 0) {
        return 0;
    }
    return std::fabs(launching_self_ns + unattributed_ns - launch_ns) /
           launch_ns;
}

LayerTable
buildLayerTable(const std::vector<obs::TraceEvent> &events)
{
    std::vector<const obs::TraceEvent *> spans;
    std::unordered_map<u64, std::size_t> index;
    for (const obs::TraceEvent &e : events) {
        if (e.kind == obs::TraceEventKind::kWallSpan) {
            index[e.id] = spans.size();
            spans.push_back(&e);
        }
    }

    // Children covering a span on its own thread.
    std::vector<double> same_thread_child_ns(spans.size(), 0);
    for (const obs::TraceEvent *s : spans) {
        auto parent = index.find(s->parent);
        if (parent != index.end() &&
            spans[parent->second]->track == s->track) {
            same_thread_child_ns[parent->second] +=
                static_cast<double>(s->dur_ns);
        }
    }

    // Outermost enclosing `launch` span (itself included), memoized.
    std::vector<std::size_t> root(spans.size(), kNone);
    std::vector<bool> resolved(spans.size(), false);
    auto rootOf = [&](std::size_t i) {
        std::vector<std::size_t> chain;
        std::size_t found = kNone;
        std::size_t found_pos = 0; // chain entries at or below it share it
        for (std::size_t cur = i; cur != kNone;) {
            if (resolved[cur]) {
                if (root[cur] != kNone) {
                    found = root[cur];
                    found_pos = chain.size();
                }
                break;
            }
            chain.push_back(cur);
            if (spans[cur]->name == kLaunchSpan) {
                found = cur;
                found_pos = chain.size() - 1;
            }
            auto parent = index.find(spans[cur]->parent);
            cur = parent == index.end() ? kNone : parent->second;
        }
        for (std::size_t k = 0; k < chain.size(); ++k) {
            root[chain[k]] = k <= found_pos ? found : kNone;
            resolved[chain[k]] = true;
        }
        return root[i];
    };

    LayerTable table;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const obs::TraceEvent &s = *spans[i];
        double dur = static_cast<double>(s.dur_ns);
        double self = std::max(0.0, dur - same_thread_child_ns[i]);
        table.inclusive_ns[s.name] += dur;
        table.span_count[s.name]++;

        LayerRow &row = table.layers[layerOf(s.name)];
        row.spans++;
        std::size_t r = rootOf(i);
        if (r == kNone) {
            row.outside_ns += self;
            continue;
        }
        if (r == i) {
            table.launches++;
            table.launch_ns += dur;
        }
        if (s.track != spans[r]->track) {
            row.worker_ns += self;
            continue;
        }
        row.launching_ns += self;
        if (s.name == kLaunchSpan || s.name == kWarmLaunchSpan) {
            table.unattributed_ns += self;
        } else {
            table.launching_self_ns += self;
        }
    }
    return table;
}

} // namespace sevf::perfbench
