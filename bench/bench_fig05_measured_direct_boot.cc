/**
 * @file
 * Figure 5: the measured-direct-boot step costs (copy to protected
 * memory, re-hash, decompress) per kernel config and format, plus the
 * initrd compressed-vs-raw comparison. The paper's takeaways: an LZ4
 * bzImage is the cheapest way to measured-direct-boot a kernel, and
 * the initrd is best left uncompressed.
 */
#include "bench/common.h"

#include "compress/codec.h"
#include "image/bzimage.h"
#include "workload/synthetic.h"

using namespace sevf;

int
main()
{
    bench::ObsSession obs_session; // SEVF_TRACE_OUT/SEVF_METRICS_OUT
    bench::banner("Figure 5",
                  "measured direct boot: copy/hash/decompress trade-off");
    core::Platform platform;
    const sim::CostModel &cost = platform.cost();

    stats::Table kernel_table({"kernel", "format", "image size", "copy",
                               "hash", "decompress", "total"});
    for (const workload::KernelSpec &spec : workload::allKernelSpecs()) {
        const workload::KernelArtifacts &art =
            workload::cachedKernelArtifacts(spec.config);

        struct Variant {
            const char *format;
            u64 image_size;
            u64 decompressed;
            compress::CodecKind codec;
        };
        image::BzImageBuildConfig gzip_cfg;
        gzip_cfg.codec = compress::CodecKind::kGzipLite;
        const ByteVec gzip_bz = image::buildBzImage(art.vmlinux, gzip_cfg);
        const Variant variants[] = {
            {"vmlinux", art.vmlinux.size(), 0, compress::CodecKind::kNone},
            {"bzImage-lz4", art.bzimage.size(), art.vmlinux.size(),
             compress::CodecKind::kLz4},
            {"bzImage-gzip", gzip_bz.size(), art.vmlinux.size(),
             compress::CodecKind::kGzipLite},
        };
        for (const Variant &v : variants) {
            double copy = cost.cpuCopy(v.image_size).toMsF();
            double hash = cost.cpuSha256(v.image_size).toMsF();
            double decompress =
                cost.decompressCost(v.codec, v.decompressed).toMsF();
            kernel_table.addRow(
                {spec.name, v.format,
                 stats::fmtBytes(static_cast<double>(v.image_size)),
                 stats::fmtMs(copy), stats::fmtMs(hash),
                 stats::fmtMs(decompress),
                 stats::fmtMs(copy + hash + decompress)});
        }
    }
    kernel_table.print();
    bench::note("bzImage-lz4 wins for every config: hashing/copying the "
                "small image beats hashing the vmlinux, despite paying "
                "decompression");

    std::printf("\n");
    stats::Table initrd_table({"initrd variant", "staged size", "copy",
                               "hash", "decompress", "total"});
    const ByteVec &initrd = workload::cachedInitrd();
    ByteVec initrd_lz4 =
        compress::codecFor(compress::CodecKind::kLz4).compress(initrd);
    struct IVariant {
        const char *name;
        u64 staged;
        u64 decompressed; // 0 = none
    };
    const IVariant ivariants[] = {
        {"uncompressed", initrd.size(), 0},
        {"lz4", initrd_lz4.size(), initrd.size()},
    };
    for (const IVariant &v : ivariants) {
        double copy = cost.cpuCopy(v.staged).toMsF();
        double hash = cost.cpuSha256(v.staged).toMsF();
        double decompress =
            v.decompressed ? cost.lz4Decompress(v.decompressed).toMsF() : 0;
        initrd_table.addRow(
            {v.name, stats::fmtBytes(static_cast<double>(v.staged)),
             stats::fmtMs(copy), stats::fmtMs(hash), stats::fmtMs(decompress),
             stats::fmtMs(copy + hash + decompress)});
    }
    initrd_table.print();
    bench::note("the attestation initrd barely compresses (14MiB -> "
                "~12MiB), so compression only adds decompression time - "
                "leave it uncompressed (S3.3)");
    return 0;
}
