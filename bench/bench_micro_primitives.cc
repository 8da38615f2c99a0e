/**
 * @file
 * google-benchmark microbenchmarks for the from-scratch primitives the
 * boot path is built on: SHA-256, HMAC, AES-128, the XEX memory
 * encryption engine, LZ4 and gzip-lite codecs, and the launch-digest
 * chain. These are real wall-clock numbers (everything else in bench/
 * reports deterministic virtual time).
 */
#include <benchmark/benchmark.h>

#include "bench/common.h"

#include "base/rng.h"
#include "compress/codec.h"
#include "crypto/hmac.h"
#include "crypto/measurement.h"
#include "crypto/sha256.h"
#include "crypto/xex.h"
#include "workload/synthetic.h"

using namespace sevf;

namespace {

ByteVec
randomBytes(std::size_t n, u64 seed)
{
    ByteVec out(n);
    Rng rng(seed);
    rng.fill(out);
    return out;
}

void
BM_Sha256(benchmark::State &state)
{
    ByteVec data = randomBytes(static_cast<std::size_t>(state.range(0)), 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::digest(data));
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(1 << 20);

void
BM_HmacSha256(benchmark::State &state)
{
    ByteVec key = randomBytes(32, 2);
    ByteVec data = randomBytes(4096, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::hmacSha256(key, data));
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 4096);
}
BENCHMARK(BM_HmacSha256);

void
BM_XexEncryptPage(benchmark::State &state)
{
    Rng rng(4);
    crypto::Aes128Key k, t;
    rng.fill(k);
    rng.fill(t);
    crypto::XexCipher xex(k, t);
    ByteVec page = randomBytes(static_cast<std::size_t>(state.range(0)), 5);
    u64 addr = 0x1000;
    for (auto _ : state) {
        xex.encrypt(page, page, addr);
        benchmark::DoNotOptimize(page.data());
        addr += page.size();
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_XexEncryptPage)->Arg(4096)->Arg(1 << 20);

void
BM_Lz4Compress(benchmark::State &state)
{
    ByteVec data = workload::compressibleBytes(
        static_cast<u64>(state.range(0)), 0.15, 6);
    const compress::Codec &lz4 = compress::codecFor(compress::CodecKind::kLz4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(lz4.compress(data));
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Lz4Compress)->Arg(1 << 20);

void
BM_Lz4Decompress(benchmark::State &state)
{
    ByteVec data = workload::compressibleBytes(
        static_cast<u64>(state.range(0)), 0.15, 7);
    const compress::Codec &lz4 = compress::codecFor(compress::CodecKind::kLz4);
    ByteVec stream = lz4.compress(data);
    for (auto _ : state) {
        benchmark::DoNotOptimize(lz4.decompress(stream));
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Lz4Decompress)->Arg(1 << 20);

void
BM_GzipLiteDecompress(benchmark::State &state)
{
    ByteVec data = workload::compressibleBytes(
        static_cast<u64>(state.range(0)), 0.15, 9);
    const compress::Codec &gz =
        compress::codecFor(compress::CodecKind::kGzipLite);
    ByteVec stream = gz.compress(data);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gz.decompress(stream));
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_GzipLiteDecompress)->Arg(1 << 20);

void
BM_LaunchDigestExtend(benchmark::State &state)
{
    ByteVec region = randomBytes(64 * 1024, 9);
    for (auto _ : state) {
        crypto::LaunchDigest digest;
        digest.extendRegion(crypto::MeasuredPageType::kNormal, 0x8000,
                            region);
        benchmark::DoNotOptimize(digest.value());
    }
    state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(region.size()));
}
BENCHMARK(BM_LaunchDigestExtend);

} // namespace

// SEVF_TRACE_OUT/SEVF_METRICS_OUT work here too; a namespace-scope
// session exports at static destruction, after BENCHMARK_MAIN returns.
static bench::ObsSession obs_session;

BENCHMARK_MAIN();
