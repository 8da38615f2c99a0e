/**
 * @file
 * The bzImage bootstrap loader, running inside the guest.
 *
 * This is the decompression stage SEVeriFast deliberately puts *back*
 * on the boot path (§4.4): it reads the protected bzImage from C-bit
 * memory, decompresses the payload (real LZ4 or gzip-lite), and loads
 * the inner vmlinux's PT_LOAD segments to their run addresses. Trading
 * this decompression for less measured-direct-boot hashing is the
 * paper's central counterintuitive result.
 */
#ifndef SEVF_GUEST_BOOTSTRAP_LOADER_H_
#define SEVF_GUEST_BOOTSTRAP_LOADER_H_

#include "base/status.h"
#include "compress/codec.h"
#include "memory/guest_memory.h"

namespace sevf::guest {

/** Outcome of the bootstrap loader. */
struct LoadedKernel {
    u64 entry = 0;              //!< 64-bit entry point of the vmlinux
    u64 decompressed_bytes = 0; //!< payload size after decompression
    u64 loaded_bytes = 0;       //!< segment bytes placed at run addresses
    u64 kaslr_slide = 0;        //!< applied load-address randomization
    compress::CodecKind codec = compress::CodecKind::kNone;
};

/**
 * Guest-side KASLR (extension): §8 observes that SEVeriFast breaks
 * in-monitor KASLR - the host must not know the layout of a
 * confidential guest anyway. Because SEVeriFast moved decompression
 * back into the guest, the bootstrap loader can randomize the load
 * address itself, from in-guest entropy the host never sees.
 */
struct KaslrConfig {
    bool enabled = false;
    u64 seed = 0;          //!< in-guest entropy (RDRAND stand-in)
    u64 max_slide = 0;     //!< exclusive upper bound, 2 MiB aligned
};

/**
 * Decompress and load the bzImage at @p bzimage_gpa.
 *
 * @param c_bit whether the image (and the load destinations) are in
 *        encrypted memory (true on the SEV path, false for a plain
 *        bzImage boot)
 * @param decode_area the decompression area: the setup header's
 *        init_size bytes, which the x86 boot protocol reserves. The
 *        vmlinux is decoded into its first init_size bytes, and a frame
 *        that declares more fails with kCorrupted before any byte is
 *        written. Its segments are placed from there.
 */
Result<LoadedKernel> runBootstrapLoader(memory::GuestMemory &mem,
                                        Gpa bzimage_gpa, u64 size,
                                        bool c_bit, MutByteSpan decode_area,
                                        const KaslrConfig &kaslr = {});

} // namespace sevf::guest

#endif // SEVF_GUEST_BOOTSTRAP_LOADER_H_
