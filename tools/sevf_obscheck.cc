/**
 * @file
 * sevf_obscheck: validate the observability exports of sevf_boot and
 * sevf_serve, and the docs that must describe them.
 *
 *   usage: sevf_obscheck [--trace trace.json] [--metrics metrics.prom]
 *                        [--docs docs/OBSERVABILITY.md]
 *                        [--reliability docs/RELIABILITY.md]
 *                        [--service] [--min-coverage 0.95]
 *
 * Each flag turns on one gate; the gate table in docs/OBSERVABILITY.md
 * says what each checks. The metric gates are derived from the family
 * table in obs/families.h, compiled into this tool, so no family is
 * named here: an export must carry its contract's rows (kBootExport,
 * and kServeExport with --service) and no family outside the table,
 * and the doc gates require every row (kRunbook rows in the runbook),
 * exported or not, besides the span names a trace carries.
 *
 * Exit 0 when all requested checks pass; 1 with one line per failure;
 * 2 on a usage error.
 */
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.h"
#include "obs/families.h"
#include "tools/sevf_cli_num.h"

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

/** (name, what it names) pairs a gate requires. */
using Names = std::vector<std::pair<std::string, const char *>>;

/** The declared families held to @p contract (all for kNoContract). */
Names
declaredFamilies(obs::Contract contract)
{
    Names names;
    for (const obs::Family *f : obs::kAllFamilies) {
        if (contract == obs::kNoContract || (f->contracts & contract) != 0) {
            names.emplace_back(f->name, "metric");
        }
    }
    return names;
}

/** Fail for every family held to @p contract that @p families lacks. */
void
requireExported(const char *gate, obs::Contract contract,
                const std::set<std::string> &families)
{
    Names required = declaredFamilies(contract);
    for (const auto &family : required) {
        if (!families.contains(family.first)) {
            fail(std::string(gate) + ": required family missing: " +
                 family.first);
        }
    }
    std::printf("%s: %zu required families checked\n", gate,
                required.size());
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

    // The doc gates read the table, not the export: a family outside
    // the table would go undocumented.
    std::set<std::string> undeclared = families;
    for (const obs::Family *f : obs::kAllFamilies) {
        undeclared.erase(std::string(f->name));
    }
    for (const std::string &family : undeclared) {
        fail("metrics: family " + family + " is not declared in "
             "obs/families.h");
    }
    // The figures this repo exists to reproduce need some families,
    // and the reliability layer eagerly registers its families so a
    // fault-free boot still exports them zero-valued.
    requireExported("metrics", obs::kBootExport, families);
    std::printf("metrics: %zu families\n", families.size());
    return families;
}

/** True when @p name occurs in @p text not as a prefix of a longer name. */
bool
mentions(const std::string &text, const std::string &name)
{
    for (std::size_t at = text.find(name); at != std::string::npos;
         at = text.find(name, at + 1)) {
        char next = text[at + name.size()]; // '\0' past the end
        if (!std::isalnum(static_cast<unsigned char>(next)) && next != '_') {
            return true;
        }
    }
    return false;
}

/** Doc-drift gate: every name in @p names must appear in @p path. */
void
requireDocumented(const char *gate, const std::string &path,
                  const Names &names)
{
    Result<std::string> text = readFile(path);
    if (!text.isOk()) {
        fail(text.status().message());
        return;
    }
    for (const auto &[name, what] : names) {
        if (!mentions(*text, name)) {
            fail(std::string(gate) + ": " + what + " \"" + name +
                 "\" is missing from " + path);
        }
    }
    std::printf("%s: %zu names checked against %s\n", gate, names.size(),
                path.c_str());
}

/**
 * OBSERVABILITY.md: every declared family, exported or not, and every
 * span and counter-track name the trace carries.
 */
void
checkDocs(const std::string &path, const TraceNames &trace)
{
    Names names = declaredFamilies(obs::kNoContract);
    for (const std::string &span : trace.wall_spans) {
        names.emplace_back(span, "span");
    }
    for (const std::string &track : trace.counters) {
        names.emplace_back(track, "counter track");
    }
    requireDocumented("docs", path, names);
}

/**
 * RELIABILITY.md, the runbook: every kRunbook family, every fault.* and
 * retry.* span the trace carries, and the three runbook spans an
 * operator greps for even when a run never opened them.
 */
void
checkReliability(const std::string &path, const TraceNames &trace)
{
    Names names = declaredFamilies(obs::kRunbook);
    for (const std::string &span : trace.wall_spans) {
        if (span.rfind("fault.", 0) == 0 || span.rfind("retry.", 0) == 0) {
            names.emplace_back(span, "span");
        }
    }
    for (const char *span :
         {"fault.inject", "retry.backoff", "cache.poison_fallback"}) {
        names.emplace_back(span, "span");
    }
    requireDocumented("reliability", path, names);
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
            Result<double> parsed = tools::parseFraction(arg, next(), 1.0);
            if (!parsed.isOk()) {
                std::fprintf(stderr, "%s\n",
                             parsed.status().message().c_str());
                return 2;
            }
            min_coverage = *parsed;
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
        // Serving-layer gate: the launch service registers its families
        // eagerly, so they are present even when nothing was rejected.
        requireExported("service", obs::kServeExport, families);
    }
    if (!docs_path.empty()) {
        checkDocs(docs_path, trace_names);
    }
    if (!reliability_path.empty()) {
        checkReliability(reliability_path, trace_names);
    }

    if (g_failures != 0) {
        std::fprintf(stderr, "sevf_obscheck: %d failure(s)\n", g_failures);
        return 1;
    }
    std::printf("sevf_obscheck: OK\n");
    return 0;
}
