/**
 * @file
 * Tests for the host-parallel execution layer (base/parallel.h) and the
 * property the launch pipeline hangs on: parallelism is bit-for-bit
 * invisible. Every strategy must produce the same launch measurement,
 * guest DRAM, attestation outcome, and simulated trace totals at every
 * host_threads value — and the same bytes as the golden table below.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/bytes.h"
#include "base/parallel.h"
#include "core/launch.h"
#include "crypto/sha256.h"
#include "vmm/microvm.h"
#include "workload/synthetic.h"

namespace sevf {
namespace {

// ---- ThreadPool unit tests -----------------------------------------------

TEST(ThreadPool, CoversRangeExactlyOnce)
{
    base::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, 1000, 7, [&](u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i) {
            hits[i].fetch_add(1);
        }
    });
    for (const auto &h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, BackToBackJobsEachCoverTheirOwnRange)
{
    // A worker woken for one job may reach the chunk loop only after the
    // caller finished that job alone and published the next one. It
    // must then claim nothing: a chunk cut with the previous job's grain
    // or end, or run past this job's range, shows up below. Run under
    // -DSEVF_SANITIZE=thread to see a descriptor read race directly.
    constexpr u64 kJobs = 20000;
    constexpr u64 kMaxEnd = 97;
    base::ThreadPool pool(4);
    std::vector<std::atomic<u32>> hits(kMaxEnd);
    u64 bad_jobs = 0;
    for (u64 job = 0; job < kJobs; ++job) {
        const u64 begin = job % 3;
        const u64 end = begin + 8 + (job * 7919) % (kMaxEnd - 10);
        const u64 grain = 1 + job % 4;
        std::atomic<u64> bad_chunks{0};
        for (auto &h : hits) {
            h.store(0, std::memory_order_relaxed);
        }
        pool.parallelFor(begin, end, grain, [&](u64 lo, u64 hi) {
            // Chunk boundaries depend only on (begin, end, grain).
            if (lo < begin || hi > end || hi <= lo || (lo - begin) % grain ||
                hi != std::min(lo + grain, end)) {
                bad_chunks.fetch_add(1);
                return;
            }
            for (u64 i = lo; i < hi; ++i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            }
        });
        bool ok = bad_chunks.load() == 0;
        for (u64 i = 0; i < kMaxEnd; ++i) {
            ok = ok && hits[i].load() == (i >= begin && i < end ? 1u : 0u);
        }
        bad_jobs += ok ? 0 : 1;
    }
    EXPECT_EQ(bad_jobs, 0u);
}

TEST(ThreadPool, EmptyRangeRunsNothing)
{
    base::ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(10, 10, 4, [&](u64, u64) { calls.fetch_add(1); });
    pool.parallelFor(10, 5, 4, [&](u64, u64) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, GrainLargerThanRangeIsOneChunk)
{
    base::ThreadPool pool(4);
    std::atomic<int> calls{0};
    u64 seen_lo = 99, seen_hi = 0;
    pool.parallelFor(3, 9, 1000, [&](u64 lo, u64 hi) {
        calls.fetch_add(1);
        seen_lo = lo;
        seen_hi = hi;
    });
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(seen_lo, 3u);
    EXPECT_EQ(seen_hi, 9u);
}

TEST(ThreadPool, ZeroGrainTreatedAsOne)
{
    base::ThreadPool pool(2);
    std::atomic<u64> sum{0};
    pool.parallelFor(0, 10, 0, [&](u64 lo, u64 hi) {
        EXPECT_EQ(hi, lo + 1);
        sum.fetch_add(lo);
    });
    EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    base::ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100, 1,
                         [&](u64 lo, u64) {
                             if (lo == 42) {
                                 std::vector<int> v;
                                 (void)v.at(3); // throws out_of_range
                             }
                         }),
        std::out_of_range);
    // The pool must still be usable after an exceptional job.
    std::atomic<int> calls{0};
    pool.parallelFor(0, 8, 2, [&](u64, u64) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPool, SingleThreadPoolRunsInline)
{
    base::ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::vector<u64> order;
    pool.parallelFor(0, 6, 2, [&](u64 lo, u64) { order.push_back(lo); });
    EXPECT_EQ(order, (std::vector<u64>{0, 2, 4}));
}

TEST(ParallelForFree, RespectsHostThreadsKnob)
{
    EXPECT_EQ(base::hostThreads(), 1u); // serial is the process default
    {
        base::ScopedHostThreads scope(4);
        EXPECT_EQ(base::hostThreads(), 4u);
        std::vector<std::atomic<int>> hits(256);
        base::parallelFor(0, 256, 16, [&](u64 lo, u64 hi) {
            for (u64 i = lo; i < hi; ++i) {
                hits[i].fetch_add(1);
            }
        });
        for (const auto &h : hits) {
            EXPECT_EQ(h.load(), 1);
        }
    }
    EXPECT_EQ(base::hostThreads(), 1u);
}

TEST(ParallelForFree, NestedCallDegradesToSerial)
{
    base::ScopedHostThreads scope(4);
    std::atomic<int> inner_chunks{0};
    base::parallelFor(0, 4, 1, [&](u64, u64) {
        // A nested parallelFor inside a chunk body must run inline
        // (the outer call holds the pool); it still covers its range.
        base::parallelFor(0, 10, 2,
                          [&](u64, u64) { inner_chunks.fetch_add(1); });
    });
    EXPECT_EQ(inner_chunks.load(), 4 * 5);
}

// ---- Serial-vs-parallel launch equivalence -------------------------------

std::string
hexDigest(const crypto::Sha256Digest &d)
{
    return toHex(ByteSpan(d.data(), d.size()));
}

/**
 * SHA-256 over the booted guest's whole DRAM. The launch measurement
 * covers only the pre-encrypted pages; this also pins every byte the
 * boot verifier, the bootstrap loader and the attestation client wrote
 * (ciphertext under the guest's key, so the encryption itself is
 * pinned too).
 */
std::string
dramDigest(const core::LaunchResult &r)
{
    return hexDigest(crypto::Sha256::digest(r.vm->memory().raw()));
}

/**
 * Golden bytes of the default request at scale 1/32 on a deterministic
 * platform. Host-side optimisations of the launch data path must
 * reproduce them exactly; only a deliberate change to what a launch
 * writes may re-record them.
 */
struct GoldenBytes {
    core::StrategyKind kind;
    const char *measurement;
    const char *dram;
};

constexpr GoldenBytes kGolden[] = {
    // Non-SEV: nothing is measured.
    {core::StrategyKind::kStockFirecracker,
     "0000000000000000000000000000000000000000000000000000000000000000",
     "37e2c86273f5f4c8c914cbae6cb799e2fe50d61776dcf6f8ca63b4a0ab05a2b0"},
    {core::StrategyKind::kQemuOvmfSev,
     "35cf2393dc574bccfd03702aed1f7d512ac9c08ae1433f1eebd7da9ab5b64ed1",
     "6727be42ab32334b5661b8213a695577aec3f822b417f0d490a556426a612bca"},
    {core::StrategyKind::kSevDirectBoot,
     "b55de90b2df1f239c29fc355e2f8f88b0894bbb2337d9cf03340a9a680ddfa5a",
     "438b8dc97bf46bc33eff85a19bae40d9bea0515aa8f794292d3c00bacc326693"},
    {core::StrategyKind::kSeveriFastBz,
     "67f5b672a318ef00efaddfb7db308bf89b223886a456dc1897e885ca29737294",
     "2cb68889779bce4c24b5a4ff4894cb58db482cfc3ac4f986145e6a367e431994"},
    {core::StrategyKind::kSeveriFastVmlinux,
     "71e0b1b59094778466decb4f24d916579f499b39f110fc0e8239a37e867074ba",
     "072a53f8836087965e03a35dbbfa72afad93ba84254d272f602d0f8a055720bf"},
};

class ParallelEquivalenceTest : public ::testing::TestWithParam<GoldenBytes>
{
};

TEST_P(ParallelEquivalenceTest, ResultsIdenticalAtEveryThreadCount)
{
    const GoldenBytes &golden = GetParam();
    core::LaunchRequest request;
    request.scale = 1.0 / 32.0;
    request.keep_vm = true;

    // Reference: fully serial launch.
    request.host_threads = 1;
    core::Platform serial_platform(sim::CostParams::deterministic());
    Result<core::LaunchResult> serial =
        core::makeStrategy(golden.kind)->launch(serial_platform, request);
    ASSERT_TRUE(serial.isOk()) << serial.status().toString();
    const std::string serial_dram = dramDigest(*serial);
    EXPECT_EQ(hexDigest(serial->measurement), golden.measurement);
    EXPECT_EQ(serial_dram, golden.dram);

    for (unsigned threads : {2u, 8u}) {
        request.host_threads = threads;
        core::Platform platform(sim::CostParams::deterministic());
        Result<core::LaunchResult> parallel =
            core::makeStrategy(golden.kind)->launch(platform, request);
        ASSERT_TRUE(parallel.isOk())
            << "host_threads=" << threads << ": "
            << parallel.status().toString();

        // The launch measurement is the strongest witness: it chains
        // SHA-256 over every measured page in order.
        EXPECT_EQ(parallel->measurement, serial->measurement)
            << "measurement differs at host_threads=" << threads;
        EXPECT_EQ(dramDigest(*parallel), serial_dram)
            << "guest DRAM differs at host_threads=" << threads;
        EXPECT_EQ(parallel->attested, serial->attested);
        EXPECT_EQ(parallel->provisioned_secret_bytes,
                  serial->provisioned_secret_bytes);
        EXPECT_EQ(parallel->pre_encrypted_bytes,
                  serial->pre_encrypted_bytes);
        // Simulated time must not observe host parallelism.
        EXPECT_EQ(parallel->totalTime(), serial->totalTime())
            << "trace total differs at host_threads=" << threads;
        EXPECT_EQ(parallel->bootTime(), serial->bootTime());
        EXPECT_EQ(parallel->verifier_stats.bytes_hashed,
                  serial->verifier_stats.bytes_hashed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ParallelEquivalenceTest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenBytes> &info) {
        std::string name = core::strategyName(info.param.kind);
        for (char &c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

} // namespace
} // namespace sevf
