#include "fault/fault.h"

#include <cstdlib>

#include "obs/families.h"
#include "obs/span.h"

namespace sevf::fault {

namespace {

/** Strip ASCII whitespace from both ends of @p s. */
std::string
trim(const std::string &s)
{
    std::size_t from = s.find_first_not_of(" \t\r\n");
    if (from == std::string::npos) {
        return "";
    }
    std::size_t to = s.find_last_not_of(" \t\r\n");
    return s.substr(from, to - from + 1);
}

Result<u64>
parseU64(const std::string &text, const char *what)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || end == nullptr || *end != '\0') {
        return errInvalidArgument(std::string("fault plan: bad ") + what +
                                  " \"" + text + "\"");
    }
    return static_cast<u64>(v);
}

Result<double>
parseProbability(const std::string &text)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end == nullptr || *end != '\0' || v < 0.0 ||
        v > 1.0) {
        return errInvalidArgument("fault plan: probability must be in "
                                  "[0,1], got \"" +
                                  text + "\"");
    }
    return v;
}

/** Format @p p with enough digits to round-trip through parse. */
std::string
formatProbability(double p)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", p);
    return buf;
}

std::size_t
siteIndex(FaultSite site)
{
    return static_cast<std::size_t>(site);
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::kPspCommand: return "psp";
      case FaultSite::kCacheDiskRead: return "disk-read";
      case FaultSite::kCacheDiskWrite: return "disk-write";
      case FaultSite::kDramMmap: return "dram-mmap";
      case FaultSite::kAdmissionEnqueue: return "admission";
      case FaultSite::kServiceEnqueue: return "service-enqueue";
    }
    return "unknown";
}

Result<FaultSite>
parseFaultSite(const std::string &name)
{
    for (FaultSite site :
         {FaultSite::kPspCommand, FaultSite::kCacheDiskRead,
          FaultSite::kCacheDiskWrite, FaultSite::kDramMmap,
          FaultSite::kAdmissionEnqueue, FaultSite::kServiceEnqueue}) {
        if (name == faultSiteName(site)) {
            return site;
        }
    }
    return errInvalidArgument("fault plan: unknown site \"" + name +
                              "\" (psp, disk-read, disk-write, dram-mmap, "
                              "admission, service-enqueue)");
}

Result<FaultPlan>
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t semi = spec.find(';', pos);
        std::string clause = trim(
            spec.substr(pos, semi == std::string::npos ? semi : semi - pos));
        pos = semi == std::string::npos ? spec.size() + 1 : semi + 1;
        if (clause.empty()) {
            continue;
        }
        if (clause.rfind("seed=", 0) == 0) {
            SEVF_ASSIGN_OR_RETURN(plan.seed,
                                  parseU64(clause.substr(5), "seed"));
            continue;
        }
        std::size_t colon = clause.find(':');
        if (colon == std::string::npos) {
            return errInvalidArgument("fault plan: clause \"" + clause +
                                      "\" lacks \"site:opts\" form");
        }
        FaultRule rule;
        SEVF_ASSIGN_OR_RETURN(rule.site,
                              parseFaultSite(trim(clause.substr(0, colon))));
        bool have_trigger = false;
        std::string opts = clause.substr(colon + 1);
        std::size_t opt_pos = 0;
        while (opt_pos <= opts.size()) {
            std::size_t comma = opts.find(',', opt_pos);
            std::string opt =
                trim(opts.substr(opt_pos, comma == std::string::npos
                                              ? comma
                                              : comma - opt_pos));
            opt_pos = comma == std::string::npos ? opts.size() + 1
                                                 : comma + 1;
            if (opt.empty()) {
                continue;
            }
            if (opt.rfind("p=", 0) == 0) {
                SEVF_ASSIGN_OR_RETURN(rule.probability,
                                      parseProbability(opt.substr(2)));
                have_trigger = true;
            } else if (opt.rfind("nth=", 0) == 0) {
                SEVF_ASSIGN_OR_RETURN(rule.nth,
                                      parseU64(opt.substr(4), "nth"));
                if (rule.nth == 0) {
                    return errInvalidArgument(
                        "fault plan: nth is 1-based, got 0");
                }
                have_trigger = true;
            } else if (opt.rfind("count=", 0) == 0) {
                SEVF_ASSIGN_OR_RETURN(rule.count,
                                      parseU64(opt.substr(6), "count"));
                if (rule.count == 0) {
                    return errInvalidArgument(
                        "fault plan: count must be >= 1");
                }
            } else {
                return errInvalidArgument("fault plan: unknown option \"" +
                                          opt + "\" (p=, nth=, count=)");
            }
        }
        if (rule.nth != 0 && rule.probability != 0.0) {
            return errInvalidArgument(
                "fault plan: rule for \"" +
                std::string(faultSiteName(rule.site)) +
                "\" mixes p= and nth= triggers");
        }
        if (!have_trigger) {
            return errInvalidArgument(
                "fault plan: rule for \"" +
                std::string(faultSiteName(rule.site)) +
                "\" has no p= or nth= trigger");
        }
        plan.rules.push_back(rule);
    }
    return plan;
}

std::string
FaultPlan::toString() const
{
    std::string out = "seed=" + std::to_string(seed);
    for (const FaultRule &r : rules) {
        out += ';';
        out += faultSiteName(r.site);
        out += ':';
        if (r.nth != 0) {
            out += "nth=" + std::to_string(r.nth);
            if (r.count != 1) {
                out += ",count=" + std::to_string(r.count);
            }
        } else {
            out += "p=" + formatProbability(r.probability);
        }
    }
    return out;
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

FaultInjector::FaultInjector()
{
    // Eager registration: the fault families are kBootExport rows, so
    // every export lists them, zero-valued on fault-free runs.
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
        const char *site = faultSiteName(static_cast<FaultSite>(i));
        obs::kFaultChecks.metric(site);
        obs::kFaultInjected.metric(site);
    }
}

void
FaultInjector::arm(FaultPlan plan)
{
    {
        base::MutexLock lock(mu_);
        rng_ = Rng(plan.seed);
        plan_ = std::move(plan);
        for (SiteStats &s : stats_) {
            s = SiteStats{};
        }
    }
    armed_.store(true, std::memory_order_release);
}

void
FaultInjector::disarm()
{
    armed_.store(false, std::memory_order_release);
    base::MutexLock lock(mu_);
    plan_.rules.clear();
}

Status
FaultInjector::check(FaultSite site, std::string_view detail)
{
    if (!armed_.load(std::memory_order_relaxed)) {
        return Status::ok();
    }
    bool inject = false;
    {
        base::MutexLock lock(mu_);
        SiteStats &s = stats_[siteIndex(site)];
        u64 occurrence = ++s.occurrences;
        for (const FaultRule &r : plan_.rules) {
            if (r.site != site) {
                continue;
            }
            if (r.nth != 0) {
                inject = occurrence >= r.nth && occurrence < r.nth + r.count;
            } else {
                inject = rng_.nextDouble() < r.probability;
            }
            if (inject) {
                break;
            }
        }
        if (inject) {
            s.injected++;
        }
    }
    // Metrics/spans after the injector lock is released: obs takes its
    // own registry/trace locks and must not nest under FaultInjector::mu.
    obs::kFaultChecks.add(faultSiteName(site));
    if (inject) {
        obs::kFaultInjected.add(faultSiteName(site));
    }
    if (!inject) {
        return Status::ok();
    }
    SEVF_SPAN("fault.inject", "site", faultSiteName(site));
    return errUnavailable("injected fault at " +
                          std::string(faultSiteName(site)) + ": " +
                          std::string(detail));
}

FaultInjector::SiteStats
FaultInjector::siteStats(FaultSite site) const
{
    base::MutexLock lock(mu_);
    return stats_[siteIndex(site)];
}

} // namespace sevf::fault
