#include "service/trace_replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>
#include <utility>

#include "base/json.h"
#include "obs/metrics.h"

namespace sevf::service {

namespace {

/** p-th percentile (nearest-rank) of an unsorted sample, 0 if empty. */
u64
percentile(std::vector<u64> sample, double p)
{
    if (sample.empty()) {
        return 0;
    }
    std::sort(sample.begin(), sample.end());
    double rank = p * static_cast<double>(sample.size() - 1);
    return sample[static_cast<std::size_t>(rank + 0.5)];
}

Result<TenantQuota>
parseQuota(const base::JsonValue &t)
{
    TenantQuota quota;
    if (const base::JsonValue *w = t.find("weight")) {
        if (!w->isNumber() || w->asNumber() < 1) {
            return errInvalidArgument("trace: tenant weight must be a "
                                      "number >= 1");
        }
        quota.weight = static_cast<u32>(w->asNumber());
    }
    if (const base::JsonValue *v = t.find("max_in_flight")) {
        if (!v->isNumber() || v->asNumber() < 0) {
            return errInvalidArgument("trace: max_in_flight must be a "
                                      "non-negative number");
        }
        quota.max_in_flight = static_cast<u32>(v->asNumber());
    }
    if (const base::JsonValue *v = t.find("max_queued")) {
        if (!v->isNumber() || v->asNumber() < 0) {
            return errInvalidArgument("trace: max_queued must be a "
                                      "non-negative number");
        }
        quota.max_queued = static_cast<std::size_t>(v->asNumber());
    }
    if (const base::JsonValue *v = t.find("cache_share_bytes")) {
        if (!v->isNumber() || v->asNumber() < 0) {
            return errInvalidArgument("trace: cache_share_bytes must be "
                                      "a non-negative number");
        }
        quota.cache_share_bytes = static_cast<u64>(v->asNumber());
    }
    return quota;
}

} // namespace

Result<core::StrategyKind>
parseStrategy(const std::string &name)
{
    if (name == "stock") {
        return core::StrategyKind::kStockFirecracker;
    }
    if (name == "qemu") {
        return core::StrategyKind::kQemuOvmfSev;
    }
    if (name == "direct") {
        return core::StrategyKind::kSevDirectBoot;
    }
    if (name == "severifast") {
        return core::StrategyKind::kSeveriFastBz;
    }
    if (name == "severifast-vmlinux") {
        return core::StrategyKind::kSeveriFastVmlinux;
    }
    return errInvalidArgument(
        "unknown strategy \"" + name +
        "\" (stock, qemu, direct, severifast, severifast-vmlinux)");
}

Result<WorkloadTrace>
WorkloadTrace::parse(const std::string &json_text)
{
    SEVF_ASSIGN_OR_RETURN(base::JsonValue doc,
                          base::parseJson(json_text));
    if (!doc.isObject()) {
        return errInvalidArgument("trace: document must be an object");
    }

    double default_scale = 1.0;
    if (const base::JsonValue *defaults = doc.find("defaults")) {
        if (const base::JsonValue *s = defaults->find("scale")) {
            if (!s->isNumber() || s->asNumber() <= 0 ||
                s->asNumber() > 1.0) {
                return errInvalidArgument(
                    "trace: defaults.scale must be in (0, 1]");
            }
            default_scale = s->asNumber();
        }
    }

    WorkloadTrace trace;
    const base::JsonValue *tenants = doc.find("tenants");
    if (tenants == nullptr || !tenants->isArray() ||
        tenants->asArray().empty()) {
        return errInvalidArgument(
            "trace: missing non-empty tenants array");
    }
    std::map<std::string, bool> declared;
    for (const base::JsonValue &t : tenants->asArray()) {
        if (!t.isObject() || t.find("id") == nullptr ||
            !t.find("id")->isString()) {
            return errInvalidArgument(
                "trace: every tenant needs a string id");
        }
        const std::string &id = t.find("id")->asString();
        if (declared.contains(id)) {
            return errInvalidArgument("trace: duplicate tenant \"" + id +
                                      "\"");
        }
        SEVF_ASSIGN_OR_RETURN(TenantQuota quota, parseQuota(t));
        declared[id] = true;
        trace.tenants.emplace_back(id, quota);
    }

    const base::JsonValue *events = doc.find("events");
    if (events == nullptr || !events->isArray() ||
        events->asArray().empty()) {
        return errInvalidArgument("trace: missing non-empty events array");
    }
    for (const base::JsonValue &e : events->asArray()) {
        if (!e.isObject()) {
            return errInvalidArgument("trace: events must be objects");
        }
        TraceEventSpec spec;
        const base::JsonValue *tenant = e.find("tenant");
        if (tenant == nullptr || !tenant->isString()) {
            return errInvalidArgument(
                "trace: every event needs a string tenant");
        }
        spec.tenant = tenant->asString();
        if (!declared.contains(spec.tenant)) {
            return errInvalidArgument("trace: event names undeclared "
                                      "tenant \"" +
                                      spec.tenant + "\"");
        }
        const base::JsonValue *strategy = e.find("strategy");
        if (strategy == nullptr || !strategy->isString()) {
            return errInvalidArgument(
                "trace: every event needs a string strategy");
        }
        SEVF_ASSIGN_OR_RETURN(spec.strategy,
                              parseStrategy(strategy->asString()));
        const base::JsonValue *at = e.find("at_us");
        if (at == nullptr || !at->isNumber() || at->asNumber() < 0) {
            return errInvalidArgument("trace: every event needs a "
                                      "non-negative numeric at_us");
        }
        spec.at_us = static_cast<u64>(at->asNumber());
        spec.scale = default_scale;
        if (const base::JsonValue *s = e.find("scale")) {
            if (!s->isNumber() || s->asNumber() <= 0 ||
                s->asNumber() > 1.0) {
                return errInvalidArgument(
                    "trace: event scale must be in (0, 1]");
            }
            spec.scale = s->asNumber();
        }
        trace.events.push_back(std::move(spec));
    }
    return trace;
}

Result<ReplayReport>
replayTrace(LaunchService &service, const WorkloadTrace &trace,
            double time_scale)
{
    if (time_scale < 0 || !std::isfinite(time_scale)) {
        return errInvalidArgument(
            "replay: time_scale must be finite and >= 0");
    }
    for (const auto &[id, quota] : trace.tenants) {
        Status registered = service.registerTenant(id, quota);
        if (!registered.isOk()) {
            return registered;
        }
    }

    // Stable arrival order: by offset, ties in trace order.
    std::vector<std::size_t> order(trace.events.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return trace.events[a].at_us <
                                trace.events[b].at_us;
                     });

    struct Submitted {
        std::string tenant;
        std::shared_ptr<core::LaunchTicket> ticket;
        u64 submit_ns = 0;
    };
    std::vector<Submitted> submitted;
    submitted.reserve(order.size());

    u64 start_ns = obs::wallNowNs();
    for (std::size_t idx : order) {
        const TraceEventSpec &e = trace.events[idx];
        u64 due_ns =
            static_cast<u64>(static_cast<double>(e.at_us) * 1000.0 *
                             time_scale);
        u64 now = obs::wallNowNs() - start_ns;
        if (now < due_ns) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(due_ns - now));
        }
        core::LaunchRequest req;
        req.kernel = workload::KernelConfig::kAws;
        req.scale = e.scale;
        req.attest = false;
        Submitted out;
        out.tenant = e.tenant;
        out.submit_ns = obs::wallNowNs();
        out.ticket = service.submit(e.tenant, e.strategy, req);
        submitted.push_back(std::move(out));
    }

    std::map<std::string, TenantReport> reports;
    std::map<std::string, std::vector<u64>> latencies;
    std::vector<sim::BootTrace> boot_traces;
    for (const auto &[id, quota] : trace.tenants) {
        reports[id].tenant = id;
    }
    for (Submitted &out : submitted) {
        TenantReport &rep = reports[out.tenant];
        rep.submitted++;
        Result<core::LaunchResult> result = out.ticket->take();
        u64 latency = obs::wallNowNs() - out.submit_ns;
        // The pipeline's record, the one its sevf_service_* counters
        // were bumped from: the report cannot disagree with the export.
        switch (out.ticket->outcome()) {
        case core::LaunchOutcome::kCompleted:
            rep.completed++;
            rep.warm_hits += result->cache_hit ? 1 : 0;
            latencies[out.tenant].push_back(latency);
            boot_traces.push_back(result->trace);
            break;
        case core::LaunchOutcome::kRejected:
            rep.rejected++;
            break;
        case core::LaunchOutcome::kFailed:
            rep.failed++;
            break;
        }
    }
    service.drain();

    ReplayReport report;
    report.wall_ns = obs::wallNowNs() - start_ns;
    double fair_num = 0.0;
    double fair_den = 0.0;
    std::size_t fair_n = 0;
    for (auto &[id, rep] : reports) {
        std::vector<u64> &sample = latencies[id];
        if (!sample.empty()) {
            double sum = 0;
            for (u64 v : sample) {
                sum += static_cast<double>(v);
            }
            rep.mean_ns = sum / static_cast<double>(sample.size());
            rep.p50_ns = percentile(sample, 0.50);
            rep.p95_ns = percentile(sample, 0.95);
            rep.max_ns = *std::max_element(sample.begin(), sample.end());
            fair_num += rep.mean_ns;
            fair_den += rep.mean_ns * rep.mean_ns;
            fair_n++;
        }
        report.tenants.push_back(rep);
    }
    if (fair_n > 0 && fair_den > 0) {
        report.latency_fairness = (fair_num * fair_num) /
                                  (static_cast<double>(fair_n) * fair_den);
    }
    if (!boot_traces.empty()) {
        // Model the whole workload through the single shared PSP: this
        // is the virtual-time contention figure, and (with metrics on)
        // what registers sevf_psp_queue_depth / sevf_psp_wait_ns — the
        // same post-launch replay sevf_boot does for one launch.
        sim::ReplayResult des = sim::replayConcurrent(boot_traces);
        report.des_mean_completion_ns =
            static_cast<u64>(des.meanCompletion().ns());
        report.des_max_completion_ns =
            static_cast<u64>(des.maxCompletion().ns());
    }
    return report;
}

std::string
reportToJson(const ReplayReport &report)
{
    base::JsonWriter w;
    w.beginObject();
    w.key("wall_ns").value(report.wall_ns);
    w.key("latency_fairness").value(report.latency_fairness);
    w.key("des_mean_completion_ns").value(report.des_mean_completion_ns);
    w.key("des_max_completion_ns").value(report.des_max_completion_ns);
    w.key("tenants").beginArray();
    for (const TenantReport &t : report.tenants) {
        w.beginObject();
        w.key("tenant").value(t.tenant);
        w.key("submitted").value(t.submitted);
        w.key("completed").value(t.completed);
        w.key("rejected").value(t.rejected);
        w.key("failed").value(t.failed);
        w.key("warm_hits").value(t.warm_hits);
        w.key("p50_ns").value(t.p50_ns);
        w.key("p95_ns").value(t.p95_ns);
        w.key("max_ns").value(t.max_ns);
        w.key("mean_ns").value(t.mean_ns);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.take();
}

} // namespace sevf::service
