#include "core/report.h"

#include <cstdio>

#include "base/bytes.h"
#include "base/json.h"

namespace sevf::core {

std::string
launchResultToJson(const LaunchResult &result, bool include_steps)
{
    base::JsonWriter json;
    json.beginObject();
    json.key("strategy").value(strategyName(result.strategy));
    json.key("boot_time_ms").value(result.bootTime().toMsF());
    json.key("total_time_ms").value(result.totalTime().toMsF());
    json.key("pre_encrypted_bytes").value(result.pre_encrypted_bytes);
    json.key("attested").value(result.attested);
    json.key("cache_hit").value(result.cache_hit);
    json.key("provisioned_secret_bytes")
        .value(result.provisioned_secret_bytes);
    json.key("kaslr_slide").value(result.kaslr_slide);
    json.key("measurement")
        .value(toHex(ByteSpan(result.measurement.data(),
                              result.measurement.size())));

    json.key("phases").beginObject();
    for (const std::string &phase : result.trace.phases()) {
        json.key(phase).value(result.trace.phaseTotal(phase).toMsF());
    }
    json.endObject();

    json.key("verifier").beginObject();
    json.key("pages_validated").value(result.verifier_stats.pages_validated);
    json.key("bytes_copied").value(result.verifier_stats.bytes_copied);
    json.key("bytes_hashed").value(result.verifier_stats.bytes_hashed);
    json.key("pagetable_bytes").value(result.verifier_stats.pagetable_bytes);
    json.endObject();

    if (include_steps) {
        json.key("steps").beginArray();
        for (const sim::Step &step : result.trace.steps()) {
            json.beginObject();
            json.key("kind").value(sim::stepKindName(step.kind));
            json.key("phase").value(step.phase);
            json.key("label").value(step.label);
            json.key("ms").value(step.duration.toMsF());
            json.endObject();
        }
        json.endArray();
    }

    json.endObject();
    return json.take();
}

std::string
renderTimeline(const sim::BootTrace &trace)
{
    std::string out;
    sim::TimePoint now;
    for (const sim::Step &step : trace.steps()) {
        now += step.duration;
        char line[160];
        std::snprintf(line, sizeof(line), "[%10.3fms] %s\n", now.toMsF(),
                      step.label.c_str());
        out += line;
    }
    return out;
}

} // namespace sevf::core
