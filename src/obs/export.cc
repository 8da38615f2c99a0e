#include "obs/export.h"

#include <fstream>

#include "base/json.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace sevf::obs {
namespace {

/** Prometheus label-value escaping: the text format escapes only the
 *  quote, the backslash and newline. */
std::string
escaped(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

std::string
renderLabels(const Labels &labels)
{
    if (labels.empty()) {
        return "";
    }
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0) {
            out += ",";
        }
        out += labels[i].first;
        out += "=\"";
        out += escaped(labels[i].second);
        out += "\"";
    }
    out += "}";
    return out;
}

/** Labels plus one extra pair (histogram le=). */
std::string
renderLabelsPlus(const Labels &labels, std::string_view key,
                 std::string_view value)
{
    Labels with = labels;
    with.emplace_back(std::string(key), std::string(value));
    return renderLabels(with);
}

} // namespace

std::string
exportPrometheus()
{
    std::string out;
    std::string last_name;
    for (const MetricSnapshot &m : Registry::instance().snapshot()) {
        if (m.name != last_name) {
            // One HELP/TYPE header per family even when the family has
            // several label sets.
            out += "# HELP " + m.name + " " + m.help + "\n";
            out += "# TYPE " + m.name + " ";
            out += metricKindName(m.kind);
            out += "\n";
            last_name = m.name;
        }
        switch (m.kind) {
        case MetricKind::kCounter:
            out += m.name + renderLabels(m.labels) + " " +
                   std::to_string(m.counter_value) + "\n";
            break;
        case MetricKind::kGauge:
            out += m.name + renderLabels(m.labels) + " " +
                   std::to_string(m.gauge_value) + "\n";
            break;
        case MetricKind::kHistogram: {
            u64 cumulative = 0;
            for (std::size_t i = 0; i < m.histogram.counts.size(); ++i) {
                cumulative += m.histogram.counts[i];
                std::string le =
                    i < m.histogram.bounds.size()
                        ? std::to_string(m.histogram.bounds[i])
                        : std::string("+Inf");
                out += m.name + "_bucket" +
                       renderLabelsPlus(m.labels, "le", le) + " " +
                       std::to_string(cumulative) + "\n";
            }
            out += m.name + "_sum" + renderLabels(m.labels) + " " +
                   std::to_string(m.histogram.sum) + "\n";
            out += m.name + "_count" + renderLabels(m.labels) + " " +
                   std::to_string(m.histogram.count) + "\n";
            break;
        }
        }
    }
    return out;
}

std::string
exportMetricsJson()
{
    base::JsonWriter w;
    w.beginObject().key("metrics").beginArray();
    for (const MetricSnapshot &m : Registry::instance().snapshot()) {
        w.beginObject();
        w.key("name").value(m.name).key("kind").value(metricKindName(m.kind));
        w.key("help").value(m.help);
        w.key("labels").beginObject();
        for (const auto &[label, value] : m.labels) {
            w.key(label).value(value);
        }
        w.endObject();
        switch (m.kind) {
        case MetricKind::kCounter:
            w.key("value").value(m.counter_value);
            break;
        case MetricKind::kGauge:
            w.key("value").value(m.gauge_value);
            break;
        case MetricKind::kHistogram:
            w.key("bounds").beginArray();
            for (u64 bound : m.histogram.bounds) {
                w.value(bound);
            }
            w.endArray().key("counts").beginArray();
            for (u64 count : m.histogram.counts) {
                w.value(count);
            }
            w.endArray();
            w.key("sum").value(m.histogram.sum);
            w.key("count").value(m.histogram.count);
            break;
        }
        w.endObject();
    }
    w.endArray().endObject();
    return w.take() + "\n";
}

namespace {

Status
writeFile(std::string_view path, const std::string &contents)
{
    std::ofstream out{std::string(path)};
    if (!out) {
        return Status(ErrorCode::kInvalidArgument,
                      "cannot open for writing: " + std::string(path));
    }
    out << contents;
    out.close();
    if (!out) {
        return Status(ErrorCode::kResourceExhausted,
                      "short write: " + std::string(path));
    }
    return Status::ok();
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

} // namespace

Status
writeMetricsFile(std::string_view path)
{
    return writeFile(path, endsWith(path, ".json") ? exportMetricsJson()
                                                   : exportPrometheus());
}

Status
writeTraceFile(std::string_view path)
{
    return writeFile(path, exportChromeTrace());
}

} // namespace sevf::obs
