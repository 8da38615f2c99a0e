/**
 * @file
 * LZ4 block-format compressor/decompressor, from scratch.
 *
 * The compressed payload follows the LZ4 block specification exactly
 * (token byte, literal run, little-endian 16-bit offset, 4+ match
 * length), wrapped in the project frame header. This is the codec the
 * paper selects for bzImages: "the most efficient way to do measured
 * direct boot with Linux is to use a bzImage compressed with LZ4" (§3.3).
 */
#ifndef SEVF_COMPRESS_LZ4_H_
#define SEVF_COMPRESS_LZ4_H_

#include "compress/codec.h"

namespace sevf::compress {

class Lz4Codec : public Codec
{
  public:
    CodecKind kind() const override { return CodecKind::kLz4; }
    ByteVec compress(ByteSpan input) const override;
    Result<u64> decompressInto(ByteSpan stream,
                               MutByteSpan out) const override;
    Result<ByteVec> decompress(ByteSpan stream) const override
    {
        return decompressChecked(stream);
    }

    /**
     * Raw block compression without the frame header (exposed for
     * tests and for interop-style checks against the spec).
     */
    static ByteVec compressBlock(ByteSpan input);

    /** Raw block decompression into exactly out.size() bytes. */
    static Status decompressBlock(ByteSpan block, MutByteSpan out);

  protected:
    /** No input byte decodes to more than 255 output bytes. */
    u64 maxDecodedSize(u64 payload_size) const override
    {
        return u64{255} * payload_size;
    }
};

} // namespace sevf::compress

#endif // SEVF_COMPRESS_LZ4_H_
