/**
 * @file
 * sevf_boot's command line, as data.
 *
 * The flag table is the single source of truth: the binary parses from
 * it, usageText() renders --help from it, and tests/cli_test.cc asserts
 * the two can never drift apart again (the --help text went stale once
 * already when --threads/--hugepages/--no-oob-hash/--kernel-codec/
 * --initrd-codec/--verifier-size grew in without it). Header-only so
 * the test links the exact code the tool runs.
 */
#ifndef SEVF_TOOLS_SEVF_BOOT_CLI_H_
#define SEVF_TOOLS_SEVF_BOOT_CLI_H_

#include <limits>
#include <string>
#include <vector>

#include "base/status.h"
#include "tools/sevf_cli_num.h"
#include "cache/template_cache.h"
#include "compress/codec.h"
#include "core/launch.h"
#include "fault/retry.h"
#include "memory/sev_mode.h"
#include "workload/kernel_spec.h"

namespace sevf::tools {

/** One sevf_boot flag: name, whether it takes a value, help text. */
struct BootFlag {
    const char *name;       ///< including the leading "--"
    const char *value_hint; ///< nullptr for boolean switches
    const char *help;
};

/** Every flag sevf_boot accepts, in --help display order. */
inline const std::vector<BootFlag> &
bootFlags()
{
    static const std::vector<BootFlag> flags = {
        {"--strategy", "stock|qemu|direct|severifast|severifast-vmlinux",
         "boot strategy (default severifast)"},
        {"--kernel", "lupine|aws|ubuntu", "guest kernel config (default aws)"},
        {"--mode", "sev|sev-es|sev-snp", "SEV generation (default sev-snp)"},
        {"--vcpus", "N", "guest vCPU count"},
        {"--scale", "0..1", "artifact scale factor (default 1.0)"},
        {"--seed", "N", "launch determinism seed (default 1)"},
        {"--threads", "N",
         "host worker threads for the parallel launch pipeline "
         "(0 or 1 = serial)"},
        {"--no-hugepages", nullptr,
         "back guest memory with 4 KiB pages only (re-adds the "
         "pvalidate cost hugepages hide)"},
        {"--no-attest", nullptr, "skip remote attestation after boot"},
        {"--no-oob-hash", nullptr,
         "disable out-of-band hashing (re-adds VMM hash time)"},
        {"--kernel-codec", "none|lz4|lzss|gzip",
         "bzImage payload codec (default lz4)"},
        {"--initrd-codec", "none|lz4|lzss|gzip",
         "initrd codec (default none)"},
        {"--verifier-size", "BYTES",
         "override the boot-verifier binary size (0 = 13 KiB default)"},
        {"--kaslr", nullptr, "guest-side KASLR in the bootstrap loader"},
        {"--share-key", nullptr,
         "launch with the shared platform key (weakens trust model)"},
        {"--no-cache", nullptr,
         "bypass the launch-template cache (always boot cold)"},
        {"--cache-dir", "DIR",
         "persist launch templates under DIR (created if missing) so "
         "cache hits survive across runs"},
        {"--cache-bytes", "BYTES",
         "in-memory template cache budget (0 = default 1 GiB)"},
        {"--cache-stats", nullptr,
         "print template-cache hit/miss/eviction counters after boot"},
        {"--fault-plan", "SPEC",
         "arm deterministic fault injection, e.g. "
         "\"seed=7;psp:p=0.25;disk-read:nth=2\" (sites: psp, disk-read, "
         "disk-write, dram-mmap, admission, service-enqueue)"},
        {"--retry-max", "N",
         "PSP transient-error retry budget: total attempts per command "
         "(default 3, 1 = no retry)"},
        {"--retry-base-us", "N",
         "base backoff before the first retry, microseconds, doubling "
         "per attempt (default 100)"},
        {"--retry-jitter", "0..1",
         "backoff jitter fraction (default 0.1)"},
        {"--json", nullptr, "emit a machine-readable launch report"},
        {"--trace-out", "FILE",
         "record spans/steps and write a Chrome trace-event JSON file "
         "(open in Perfetto)"},
        {"--metrics-out", "FILE",
         "record metrics and write them (.prom/.txt = Prometheus text, "
         ".json = JSON snapshot)"},
        {"--help", nullptr, "show this help"},
    };
    return flags;
}

/** The --help text, rendered from bootFlags(). */
inline std::string
usageText(const char *argv0)
{
    std::string out = "usage: ";
    out += argv0;
    out += " [flags]\n\nBoot one microVM and print the timeline, a JSON "
           "report, and optionally\nobservability exports.\n\nflags:\n";
    for (const BootFlag &f : bootFlags()) {
        std::string head = "  ";
        head += f.name;
        if (f.value_hint != nullptr) {
            head += " ";
            head += f.value_hint;
        }
        out += head;
        if (head.size() < 28) {
            out += std::string(28 - head.size(), ' ');
        } else {
            out += "\n" + std::string(28, ' ');
        }
        out += f.help;
        out += "\n";
    }
    return out;
}

/** Everything the parsed command line selects. */
struct BootOptions {
    core::LaunchRequest request;
    core::StrategyKind strategy = core::StrategyKind::kSeveriFastBz;
    bool json = false;
    bool help = false;
    std::string trace_out;
    std::string metrics_out;
    std::string cache_dir;   ///< empty = in-memory cache only
    u64 cache_bytes = 0;     ///< 0 = keep the cache's default budget
    bool cache_stats = false;
    /** Raw --fault-plan spec; parsed (and validated) at arm time so a
     *  malformed plan is reported as a clean usage error in main. */
    std::string fault_plan;
    fault::RetryPolicy retry; ///< built from the --retry-* flags
};

namespace detail {

inline Result<compress::CodecKind>
parseCodec(const std::string &v)
{
    if (v == "none") {
        return compress::CodecKind::kNone;
    }
    if (v == "lz4") {
        return compress::CodecKind::kLz4;
    }
    if (v == "lzss") {
        return compress::CodecKind::kLzss;
    }
    if (v == "gzip") {
        return compress::CodecKind::kGzipLite;
    }
    return errInvalidArgument("unknown codec: " + v);
}

} // namespace detail

/**
 * The --cache-stats line, as one string (no trailing newline). Kept
 * here so cli_test.cc asserts the exact fields operators see —
 * including the disk-tier error/quarantine counters that distinguish a
 * dying disk from a cold cache.
 */
inline std::string
renderCacheStats(const cache::TemplateCache::Stats &s)
{
    std::string out = "cache: hits=" + std::to_string(s.hits);
    out += " misses=" + std::to_string(s.misses);
    out += " inserts=" + std::to_string(s.inserts);
    out += " evictions=" + std::to_string(s.evictions);
    out += " entries=" + std::to_string(s.entries);
    out += " bytes=" + std::to_string(s.bytes);
    out += " disk_errors=" + std::to_string(s.disk_errors);
    out += " quarantined=" + std::to_string(s.quarantined);
    out += " poisoned=" + std::to_string(s.poisoned);
    return out;
}

/**
 * Parse @p args (argv[1..]). Accepts both "--flag value" and
 * "--flag=value". Unknown flags, missing values, and bad enum values
 * are kInvalidArgument errors naming the offender; the caller prints
 * usageText() and exits.
 */
inline Result<BootOptions>
parseBootArgs(const std::vector<std::string> &args)
{
    BootOptions opts;
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string arg = args[i];
        std::string value;
        bool has_inline_value = false;
        std::size_t eq = arg.find('=');
        if (eq != std::string::npos && arg.rfind("--", 0) == 0) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_inline_value = true;
        }

        const BootFlag *flag = nullptr;
        for (const BootFlag &f : bootFlags()) {
            if (arg == f.name) {
                flag = &f;
                break;
            }
        }
        if (flag == nullptr) {
            return errInvalidArgument("unknown flag: " + arg);
        }
        bool takes_value = flag->value_hint != nullptr;
        if (!takes_value && has_inline_value) {
            return errInvalidArgument(arg + " takes no value");
        }
        if (takes_value && !has_inline_value) {
            if (i + 1 >= args.size()) {
                return errInvalidArgument(arg + " needs a value");
            }
            value = args[++i];
        }

        if (arg == "--strategy") {
            if (value == "stock") {
                opts.strategy = core::StrategyKind::kStockFirecracker;
            } else if (value == "qemu") {
                opts.strategy = core::StrategyKind::kQemuOvmfSev;
            } else if (value == "direct") {
                opts.strategy = core::StrategyKind::kSevDirectBoot;
            } else if (value == "severifast") {
                opts.strategy = core::StrategyKind::kSeveriFastBz;
            } else if (value == "severifast-vmlinux") {
                opts.strategy = core::StrategyKind::kSeveriFastVmlinux;
            } else {
                return errInvalidArgument("unknown strategy: " + value);
            }
        } else if (arg == "--kernel") {
            if (value == "lupine") {
                opts.request.kernel = workload::KernelConfig::kLupine;
            } else if (value == "aws") {
                opts.request.kernel = workload::KernelConfig::kAws;
            } else if (value == "ubuntu") {
                opts.request.kernel = workload::KernelConfig::kUbuntu;
            } else {
                return errInvalidArgument("unknown kernel: " + value);
            }
        } else if (arg == "--mode") {
            if (value == "sev") {
                opts.request.sev_mode = memory::SevMode::kSev;
            } else if (value == "sev-es") {
                opts.request.sev_mode = memory::SevMode::kSevEs;
            } else if (value == "sev-snp") {
                opts.request.sev_mode = memory::SevMode::kSevSnp;
            } else {
                return errInvalidArgument("unknown mode: " + value);
            }
        } else if (arg == "--vcpus") {
            SEVF_ASSIGN_OR_RETURN(opts.request.vm.vcpus,
                                  parseU32(arg, value));
        } else if (arg == "--scale") {
            SEVF_ASSIGN_OR_RETURN(opts.request.scale,
                                  parseFraction(arg, value, 1.0));
        } else if (arg == "--seed") {
            SEVF_ASSIGN_OR_RETURN(opts.request.seed,
                                  parseU64(arg, value));
        } else if (arg == "--threads") {
            SEVF_ASSIGN_OR_RETURN(opts.request.host_threads,
                                  parseU32(arg, value));
        } else if (arg == "--no-hugepages") {
            opts.request.vm.hugepages = false;
        } else if (arg == "--no-attest") {
            opts.request.attest = false;
        } else if (arg == "--no-oob-hash") {
            opts.request.out_of_band_hashing = false;
        } else if (arg == "--kernel-codec") {
            SEVF_ASSIGN_OR_RETURN(opts.request.kernel_codec,
                                  detail::parseCodec(value));
        } else if (arg == "--initrd-codec") {
            SEVF_ASSIGN_OR_RETURN(opts.request.initrd_codec,
                                  detail::parseCodec(value));
        } else if (arg == "--verifier-size") {
            SEVF_ASSIGN_OR_RETURN(opts.request.verifier_size,
                                  parseU64(arg, value));
        } else if (arg == "--kaslr") {
            opts.request.guest_kaslr = true;
        } else if (arg == "--share-key") {
            opts.request.share_platform_key = true;
        } else if (arg == "--no-cache") {
            opts.request.use_template_cache = false;
        } else if (arg == "--cache-dir") {
            opts.cache_dir = value;
        } else if (arg == "--cache-bytes") {
            SEVF_ASSIGN_OR_RETURN(opts.cache_bytes,
                                  parseU64(arg, value));
        } else if (arg == "--cache-stats") {
            opts.cache_stats = true;
        } else if (arg == "--fault-plan") {
            opts.fault_plan = value;
        } else if (arg == "--retry-max") {
            SEVF_ASSIGN_OR_RETURN(opts.retry.max_attempts,
                                  parseU32(arg, value));
        } else if (arg == "--retry-base-us") {
            SEVF_ASSIGN_OR_RETURN(u64 base_us, parseU64(arg, value));
            if (base_us > std::numeric_limits<u64>::max() / 1000) {
                return errInvalidArgument(arg + " out of range: \"" +
                                          value + "\"");
            }
            opts.retry.base_delay_ns = base_us * 1000;
        } else if (arg == "--retry-jitter") {
            SEVF_ASSIGN_OR_RETURN(opts.retry.jitter,
                                  parseFraction(arg, value, 1.0));
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--trace-out") {
            opts.trace_out = value;
        } else if (arg == "--metrics-out") {
            opts.metrics_out = value;
        } else if (arg == "--help") {
            opts.help = true;
        }
    }
    return opts;
}

} // namespace sevf::tools

#endif // SEVF_TOOLS_SEVF_BOOT_CLI_H_
