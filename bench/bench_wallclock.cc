/**
 * @file
 * Real wall-clock performance harness for the fast launch pipeline.
 *
 * Everything else in bench/ reports deterministic virtual time from the
 * cost model; this binary times the actual kernels and the actual
 * parallel pre-encryption pipeline on the host it runs on:
 *
 *  1. serial kernel throughput (SHA-256, XEX encrypt/decrypt, LZ4),
 *  2. the pre-encrypt + measure pipeline at 1..N host threads, with a
 *     bit-identity check that the launch digest and ciphertext do not
 *     depend on the thread count,
 *  3. end-to-end functional launch latency per strategy.
 *
 * Results are written as JSON (default: BENCH_wallclock.json in the
 * current directory; pass a path to override) so CI can archive them.
 */
#include <cstring>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "bench/common.h"
#include "compress/codec.h"
#include "crypto/aes128.h"
#include "crypto/measurement.h"
#include "crypto/sha256.h"
#include "crypto/xex.h"
#include "workload/synthetic.h"

using namespace sevf;

namespace {

constexpr u64 kImageBytes = 64ull << 20; // the paper's 64 MiB guest image
constexpr int kReps = 3;

ByteVec
randomBytes(std::size_t n, u64 seed)
{
    ByteVec out(n);
    Rng rng(seed);
    rng.fill(out);
    return out;
}

crypto::XexCipher
makeEngine(u64 seed)
{
    Rng rng(seed);
    crypto::Aes128Key k, t;
    for (auto &b : k) {
        b = static_cast<u8>(rng.next());
    }
    for (auto &b : t) {
        b = static_cast<u8>(rng.next());
    }
    return crypto::XexCipher(k, t);
}

/** One pass of the launch-critical page pipeline: measure + encrypt. */
crypto::Sha256Digest
preEncryptAndMeasure(const crypto::XexCipher &engine, ByteVec &image)
{
    crypto::LaunchDigest digest;
    digest.extendRegion(crypto::MeasuredPageType::kNormal, 0, image);
    engine.encrypt(image, image, /*addr=*/0x100000000ull);
    return digest.value();
}

std::string
hexDigest(const crypto::Sha256Digest &d)
{
    static const char *kHex = "0123456789abcdef";
    std::string out;
    for (u8 b : d) {
        out += kHex[b >> 4];
        out += kHex[b & 0xf];
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs_session; // SEVF_TRACE_OUT/SEVF_METRICS_OUT
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_wallclock.json";

    bench::banner("wallclock", "real kernel + pipeline throughput");
    std::printf("  hardware threads: %u, sha-ni: %s, aes-ni: %s\n",
                base::hardwareThreads(),
                crypto::Sha256::hardwareAccelerated() ? "yes" : "no",
                crypto::Aes128::hardwareAccelerated() ? "yes" : "no");

    // ---- 1. Serial kernel throughput ------------------------------------
    std::vector<bench::JsonObject> kernels;

    ByteVec buf = randomBytes(kImageBytes, 11);
    double t = bench::bestOf(kReps, [&] {
        crypto::Sha256Digest d = crypto::Sha256::digest(buf);
        (void)d;
    });
    kernels.push_back(bench::throughputRecord("sha256", kImageBytes, t));

    crypto::XexCipher engine = makeEngine(12);
    {
        base::ScopedHostThreads serial(1);
        t = bench::bestOf(kReps,
                          [&] { engine.encrypt(buf, buf, 0x100000000ull); });
        kernels.push_back(
            bench::throughputRecord("xex_encrypt", kImageBytes, t));
        t = bench::bestOf(kReps,
                          [&] { engine.decrypt(buf, buf, 0x100000000ull); });
        kernels.push_back(
            bench::throughputRecord("xex_decrypt", kImageBytes, t));
    }

    ByteVec vmlinux = workload::compressibleBytes(kImageBytes / 4, 0.3, 13);
    const compress::Codec &lz4 = compress::codecFor(compress::CodecKind::kLz4);
    ByteVec packed = lz4.compress(vmlinux);
    t = bench::bestOf(kReps, [&] {
        ByteVec c = lz4.compress(vmlinux);
        (void)c;
    });
    kernels.push_back(
        bench::throughputRecord("lz4_compress", vmlinux.size(), t));
    t = bench::bestOf(kReps, [&] {
        Result<ByteVec> d = lz4.decompress(packed);
        if (!d.isOk()) {
            fatal("lz4 roundtrip failed in bench");
        }
    });
    kernels.push_back(
        bench::throughputRecord("lz4_decompress", vmlinux.size(), t));

    for (const bench::JsonObject &k : kernels) {
        std::printf("  %s\n", k.str().c_str());
    }

    // ---- 2. Parallel pre-encrypt + measure scaling ----------------------
    bench::banner("wallclock", "pre-encrypt + measure scaling (64 MiB)");
    std::vector<bench::JsonObject> scaling;
    const ByteVec image = randomBytes(kImageBytes, 14);

    std::string reference_digest;
    ByteVec reference_cipher;
    double serial_seconds = 0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        base::ScopedHostThreads scope(threads);
        ByteVec work;
        crypto::Sha256Digest digest{};
        double dt = bench::bestOf(kReps, [&] {
            work = image;
            digest = preEncryptAndMeasure(engine, work);
        });
        std::string digest_hex = hexDigest(digest);
        bool identical = true;
        if (threads == 1) {
            reference_digest = digest_hex;
            reference_cipher = work;
            serial_seconds = dt;
        } else {
            identical =
                digest_hex == reference_digest && work == reference_cipher;
            if (!identical) {
                fatal("thread count changed results: launch measurement or "
                      "ciphertext differs at host_threads=",
                      threads);
            }
        }
        bench::JsonObject o;
        o.field("threads", static_cast<u64>(threads))
            .field("seconds", dt)
            .field("mb_per_s", bench::mbPerSec(kImageBytes, dt))
            .field("speedup", dt > 0 ? serial_seconds / dt : 0.0)
            .field("bit_identical", identical)
            .field("measurement", digest_hex);
        std::printf("  threads=%u  %.1f MB/s  speedup %.2fx\n", threads,
                    bench::mbPerSec(kImageBytes, dt),
                    dt > 0 ? serial_seconds / dt : 0.0);
        scaling.push_back(o);
    }

    // ---- 3. Functional launch latency per strategy ----------------------
    bench::banner("wallclock", "functional launch latency (scale 0.25)");
    std::vector<bench::JsonObject> launches;
    for (core::StrategyKind kind : {
             core::StrategyKind::kStockFirecracker,
             core::StrategyKind::kQemuOvmfSev,
             core::StrategyKind::kSevDirectBoot,
             core::StrategyKind::kSeveriFastBz,
             core::StrategyKind::kSeveriFastVmlinux,
         }) {
        core::LaunchRequest request;
        request.scale = 0.25;
        request.host_threads = base::hardwareThreads();
        // This section reports COLD launch latency; warm-path numbers
        // live in the "cache" section (bench_cache_hit).
        request.use_template_cache = false;
        core::Platform platform;
        double dt = 0;
        u64 pre_encrypted = 0;
        {
            double t0 = bench::wallClock();
            core::LaunchResult result =
                bench::runNominal(platform, kind, request);
            dt = bench::wallClock() - t0;
            pre_encrypted = result.pre_encrypted_bytes;
        }
        bench::JsonObject o;
        o.field("name", core::strategyName(kind))
            .field("seconds", dt)
            .field("pre_encrypted_bytes", pre_encrypted);
        std::printf("  %-22s %8.1f ms host wall clock\n",
                    core::strategyName(kind), dt * 1e3);
        launches.push_back(o);
    }

    // ---- Emit ------------------------------------------------------------
    bench::JsonObject root;
    root.field("generated_by", "bench_wallclock")
        .field("image_bytes", kImageBytes)
        .field("hardware_threads",
               static_cast<u64>(base::hardwareThreads()))
        .field("sha_ni", crypto::Sha256::hardwareAccelerated())
        .field("aes_ni", crypto::Aes128::hardwareAccelerated())
        .raw("kernels", bench::jsonArray(kernels))
        .raw("scaling", bench::jsonArray(scaling))
        .raw("launches", bench::jsonArray(launches));

    std::ofstream out(out_path);
    if (!out) {
        fatal("cannot write ", out_path);
    }
    out << root.str() << "\n";
    std::printf("\n  wrote %s\n", out_path.c_str());
    return 0;
}
