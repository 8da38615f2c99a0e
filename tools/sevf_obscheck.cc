/**
 * @file
 * sevf_obscheck: validate the observability exports sevf_boot writes.
 *
 *   usage: sevf_obscheck [--trace trace.json] [--metrics metrics.prom]
 *                        [--docs docs/OBSERVABILITY.md]
 *                        [--reliability docs/RELIABILITY.md]
 *                        [--service] [--min-coverage 0.95]
 *
 * Five checks, each on when its input file (or flag) is given:
 *  - trace: parses as JSON (with the repo's own base/json parser),
 *    every event is structurally a Chrome trace event, and per sim
 *    launch the union of sim.step spans covers >= min-coverage of the
 *    launch's simulated duration.
 *  - metrics: Prometheus text syntax (or a .json snapshot); every
 *    sample belongs to a declared family; the PSP queue-depth and
 *    per-kernel throughput families the paper's figures depend on are
 *    present.
 *  - docs (doc-drift gate): every exported metric family, wall-span
 *    name, and counter-track name appears in docs/OBSERVABILITY.md, so
 *    new instrumentation cannot land undocumented.
 *  - reliability (doc-drift gate for the runbook): every exported
 *    fault_* and retry_* family and reliability span, plus the fixed
 *    degradation-signal names (cache disk errors/quarantine/poisoning,
 *    admission shedding, DRAM mmap fallback), appears in
 *    docs/RELIABILITY.md — a new fault domain cannot land without its
 *    operator runbook entry.
 *  - service (--service, needs --metrics): the multi-tenant serving
 *    families (sevf_service_*, the admission quota/shed counters) are
 *    present in the export — the ci.sh [service] stage runs sevf_serve
 *    and holds its metrics to this contract.
 *
 * Exit 0 when all requested checks pass; 1 with one line per failure.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.h"

using namespace sevf;

namespace {

int g_failures = 0;

void
fail(const std::string &msg)
{
    std::fprintf(stderr, "FAIL: %s\n", msg.c_str());
    ++g_failures;
}

Result<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return errInvalidArgument("cannot open " + path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

struct Interval {
    double start;
    double end;
};

/** Total length of the union of @p spans. */
double
unionLength(std::vector<Interval> spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    double covered = 0;
    double cursor = 0; // furthest end swept so far (timestamps are >= 0)
    for (const Interval &s : spans) {
        double from = std::max(s.start, cursor);
        if (s.end > from) {
            covered += s.end - from;
            cursor = s.end;
        }
    }
    return covered;
}

/** Names the trace exports that the docs must mention. */
struct TraceNames {
    std::set<std::string> wall_spans;
    std::set<std::string> counters;
};

/** Validate the Chrome trace file; returns the names it exports. */
TraceNames
checkTrace(const std::string &path, double min_coverage)
{
    TraceNames names;
    Result<std::string> text = readFile(path);
    if (!text.isOk()) {
        fail(text.status().message());
        return names;
    }
    Result<base::JsonValue> doc = base::parseJson(*text);
    if (!doc.isOk()) {
        fail("trace: " + doc.status().message());
        return names;
    }
    const base::JsonValue *events = doc->find("traceEvents");
    if (events == nullptr || !events->isArray()) {
        fail("trace: missing traceEvents array");
        return names;
    }

    // pid -> sim.step intervals (µs) and overall envelope end.
    std::map<double, std::vector<Interval>> sim_spans;
    std::map<double, double> sim_end;
    std::size_t n = 0;
    for (const base::JsonValue &e : events->asArray()) {
        ++n;
        if (!e.isObject()) {
            fail("trace: event " + std::to_string(n) + " is not an object");
            continue;
        }
        const base::JsonValue *ph = e.find("ph");
        if (ph == nullptr || !ph->isString()) {
            fail("trace: event " + std::to_string(n) + " lacks \"ph\"");
            continue;
        }
        const std::string &kind = ph->asString();
        if (kind == "M") {
            continue; // metadata: name/pid/tid/args checked by the parse
        }
        const base::JsonValue *name = e.find("name");
        const base::JsonValue *pid = e.find("pid");
        const base::JsonValue *ts = e.find("ts");
        if (name == nullptr || !name->isString() || pid == nullptr ||
            !pid->isNumber() || ts == nullptr || !ts->isNumber()) {
            fail("trace: event " + std::to_string(n) +
                 " lacks name/pid/ts");
            continue;
        }
        if (kind == "C") {
            names.counters.insert(name->asString());
            continue;
        }
        if (kind != "X") {
            fail("trace: event " + std::to_string(n) +
                 " has unexpected ph \"" + kind + "\"");
            continue;
        }
        const base::JsonValue *dur = e.find("dur");
        const base::JsonValue *cat = e.find("cat");
        if (dur == nullptr || !dur->isNumber() || cat == nullptr ||
            !cat->isString()) {
            fail("trace: X event " + std::to_string(n) + " lacks dur/cat");
            continue;
        }
        if (cat->asString() == "wall") {
            names.wall_spans.insert(name->asString());
        } else if (cat->asString() == "sim.step") {
            double start = ts->asNumber();
            double end = start + dur->asNumber();
            sim_spans[pid->asNumber()].push_back({start, end});
            double &tail = sim_end[pid->asNumber()];
            tail = std::max(tail, end);
        }
    }

    if (sim_spans.empty()) {
        fail("trace: no sim.step events (simulated clock not traced)");
    }
    for (const auto &[pid, spans] : sim_spans) {
        double total = sim_end[pid];
        if (total <= 0) {
            continue;
        }
        double covered = unionLength(spans);
        double coverage = covered / total;
        std::printf("trace: sim pid %.0f: %.1f%% of %.3f ms covered by "
                    "%zu steps\n",
                    pid, coverage * 100.0, total / 1000.0, spans.size());
        if (coverage < min_coverage) {
            fail("trace: sim pid " + std::to_string(pid) +
                 " coverage below threshold");
        }
    }
    std::printf("trace: %zu events, %zu wall span names, %zu counters\n", n,
                names.wall_spans.size(), names.counters.size());
    return names;
}

/** Family name of a Prometheus sample line ("name{...} value"). */
std::string
sampleFamily(const std::string &line)
{
    std::size_t end = line.find_first_of("{ ");
    std::string name = line.substr(0, end);
    for (const char *suffix : {"_bucket", "_sum", "_count"}) {
        std::size_t len = std::string(suffix).size();
        if (name.size() > len &&
            name.compare(name.size() - len, len, suffix) == 0) {
            return name.substr(0, name.size() - len);
        }
    }
    return name;
}

/** Validate the metrics export; returns the family names it declares. */
std::set<std::string>
checkMetrics(const std::string &path)
{
    std::set<std::string> families;
    Result<std::string> text = readFile(path);
    if (!text.isOk()) {
        fail(text.status().message());
        return families;
    }

    if (path.size() > 5 &&
        path.compare(path.size() - 5, 5, ".json") == 0) {
        Result<base::JsonValue> doc = base::parseJson(*text);
        if (!doc.isOk()) {
            fail("metrics: " + doc.status().message());
            return families;
        }
        const base::JsonValue *metrics = doc->find("metrics");
        if (metrics == nullptr || !metrics->isArray()) {
            fail("metrics: missing metrics array");
            return families;
        }
        for (const base::JsonValue &m : metrics->asArray()) {
            families.insert(m.stringAt("name"));
        }
    } else {
        std::istringstream in(*text);
        std::string line;
        std::set<std::string> declared;
        std::size_t lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            if (line.empty()) {
                continue;
            }
            if (line.rfind("# TYPE ", 0) == 0) {
                std::istringstream fields(line.substr(7));
                std::string name;
                std::string type;
                fields >> name >> type;
                if (type != "counter" && type != "gauge" &&
                    type != "histogram") {
                    fail("metrics: line " + std::to_string(lineno) +
                         ": unknown type " + type);
                }
                declared.insert(name);
                families.insert(name);
                continue;
            }
            if (line[0] == '#') {
                continue; // HELP or comment
            }
            std::string family = sampleFamily(line);
            if (!declared.contains(family)) {
                fail("metrics: line " + std::to_string(lineno) +
                     ": sample for undeclared family " + family);
            }
        }
    }

    // The figures this repo exists to reproduce need these families,
    // and the reliability layer eagerly registers its families so a
    // fault-free boot still exports them zero-valued.
    for (const char *required :
         {"sevf_psp_queue_depth", "sevf_kernel_bytes_total",
          "sevf_kernel_wall_ns_total", "sevf_cache_hits_total",
          "sevf_cache_misses_total", "sevf_cache_inserts_total",
          "sevf_cache_evictions_total", "sevf_cache_bytes",
          "sevf_fault_checks_total", "sevf_fault_injected_total",
          "sevf_retry_attempts_total", "sevf_retry_backoff_ns_total",
          "sevf_retry_exhausted_total", "sevf_cache_disk_errors_total",
          "sevf_cache_disk_quarantined", "sevf_cache_poisoned_total"}) {
        if (!families.contains(required)) {
            fail(std::string("metrics: required family missing: ") +
                 required);
        }
    }
    std::printf("metrics: %zu families\n", families.size());
    return families;
}

/** Doc-drift gate: every exported name must appear in the docs file. */
void
checkDocs(const std::string &path, const TraceNames &trace,
          const std::set<std::string> &families)
{
    Result<std::string> text = readFile(path);
    if (!text.isOk()) {
        fail(text.status().message());
        return;
    }
    std::size_t checked = 0;
    auto require = [&](const std::string &name, const char *what) {
        ++checked;
        if (text->find(name) == std::string::npos) {
            fail("docs: " + std::string(what) + " \"" + name +
                 "\" is not documented in " + path);
        }
    };
    for (const std::string &name : families) {
        require(name, "metric");
    }
    for (const std::string &name : trace.wall_spans) {
        require(name, "span");
    }
    for (const std::string &name : trace.counters) {
        require(name, "counter track");
    }
    std::printf("docs: %zu exported names checked against %s\n", checked,
                path.c_str());
}

/** True when @p name belongs to the reliability surface. */
bool
isReliabilityName(const std::string &name)
{
    static const char *kExact[] = {
        "sevf_cache_disk_errors_total", "sevf_cache_disk_quarantined",
        "sevf_cache_poisoned_total", "sevf_admission_shed_total",
        "sevf_admission_rejected_quota_total",
        "sevf_dram_mmap_fallback_total", "cache.poison_fallback",
    };
    for (const char *exact : kExact) {
        if (name == exact) {
            return true;
        }
    }
    return name.rfind("sevf_fault_", 0) == 0 ||
           name.rfind("sevf_retry_", 0) == 0 ||
           name.rfind("fault.", 0) == 0 || name.rfind("retry.", 0) == 0;
}

/**
 * Runbook-drift gate: every reliability-surface name that the exports
 * carry — plus the fixed signal list an operator greps for even when a
 * particular run never exercised it — must appear in RELIABILITY.md.
 */
void
checkReliability(const std::string &path, const TraceNames &trace,
                 const std::set<std::string> &families)
{
    Result<std::string> text = readFile(path);
    if (!text.isOk()) {
        fail(text.status().message());
        return;
    }
    std::size_t checked = 0;
    auto require = [&](const std::string &name, const char *what) {
        ++checked;
        if (text->find(name) == std::string::npos) {
            fail("reliability: " + std::string(what) + " \"" + name +
                 "\" has no runbook entry in " + path);
        }
    };
    for (const std::string &name : families) {
        if (isReliabilityName(name)) {
            require(name, "metric");
        }
    }
    for (const std::string &name : trace.wall_spans) {
        if (isReliabilityName(name)) {
            require(name, "span");
        }
    }
    // Signals that only appear in exports when their fault actually
    // fired; the runbook must cover them regardless.
    for (const char *always :
         {"sevf_fault_checks_total", "sevf_fault_injected_total",
          "sevf_retry_attempts_total", "sevf_retry_backoff_ns_total",
          "sevf_retry_exhausted_total", "sevf_cache_disk_errors_total",
          "sevf_cache_disk_quarantined", "sevf_cache_poisoned_total",
          "sevf_admission_shed_total",
          "sevf_admission_rejected_quota_total",
          "sevf_dram_mmap_fallback_total",
          "fault.inject", "retry.backoff", "cache.poison_fallback"}) {
        require(always, "signal");
    }
    std::printf("reliability: %zu names checked against %s\n", checked,
                path.c_str());
}

/**
 * Serving-layer gate: a metrics export produced by the launch service
 * (sevf_serve, bench_service_fairness) must carry the per-tenant
 * service families and the admission rejection counters. Families are
 * registered eagerly, so they are present (zero-valued) even when no
 * launch was rejected.
 */
void
checkService(const std::set<std::string> &families)
{
    for (const char *required :
         {"sevf_service_submitted_total", "sevf_service_completed_total",
          "sevf_service_failed_total", "sevf_service_rejected_total",
          "sevf_service_latency_ns", "sevf_admission_rejected_quota_total",
          "sevf_admission_shed_total"}) {
        if (!families.contains(required)) {
            fail(std::string("service: required family missing: ") +
                 required);
        }
    }
    std::printf("service: serving families present\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string metrics_path;
    std::string docs_path;
    std::string reliability_path;
    bool check_service = false;
    double min_coverage = 0.95;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--metrics") {
            metrics_path = next();
        } else if (arg == "--docs") {
            docs_path = next();
        } else if (arg == "--reliability") {
            reliability_path = next();
        } else if (arg == "--service") {
            check_service = true;
        } else if (arg == "--min-coverage") {
            min_coverage = std::atof(next().c_str());
        } else {
            std::fprintf(stderr,
                         "usage: %s [--trace FILE] [--metrics FILE] "
                         "[--docs FILE] [--reliability FILE] "
                         "[--service] [--min-coverage F]\n",
                         argv[0]);
            return 2;
        }
    }
    if (check_service && metrics_path.empty()) {
        std::fprintf(stderr, "--service needs --metrics\n");
        return 2;
    }

    TraceNames trace_names;
    std::set<std::string> families;
    if (!trace_path.empty()) {
        trace_names = checkTrace(trace_path, min_coverage);
    }
    if (!metrics_path.empty()) {
        families = checkMetrics(metrics_path);
    }
    if (check_service) {
        checkService(families);
    }
    if (!docs_path.empty()) {
        checkDocs(docs_path, trace_names, families);
    }
    if (!reliability_path.empty()) {
        checkReliability(reliability_path, trace_names, families);
    }

    if (g_failures != 0) {
        std::fprintf(stderr, "sevf_obscheck: %d failure(s)\n", g_failures);
        return 1;
    }
    std::printf("sevf_obscheck: OK\n");
    return 0;
}
