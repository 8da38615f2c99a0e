/**
 * @file
 * "gzip-lite": LZ77 (32 KiB window, 3..130-byte matches) followed by a
 * dynamic canonical-Huffman entropy stage - a from-scratch stand-in for
 * the DEFLATE/gzip class of kernel codecs (CONFIG_KERNEL_GZIP). Denser
 * than LZ4 but slower to decode: exactly the corner of the Fig 5
 * trade-off space the paper rules out for SEV boot.
 */
#ifndef SEVF_COMPRESS_GZIP_LITE_H_
#define SEVF_COMPRESS_GZIP_LITE_H_

#include "compress/codec.h"

namespace sevf::compress {

class GzipLiteCodec : public Codec
{
  public:
    CodecKind kind() const override { return CodecKind::kGzipLite; }
    ByteVec compress(ByteSpan input) const override;
    Result<u64> decompressInto(ByteSpan stream,
                               MutByteSpan out) const override;
    Result<ByteVec> decompress(ByteSpan stream) const override
    {
        return decompressChecked(stream);
    }

  protected:
    u64 maxDecodedSize(u64 payload_size) const override;
};

} // namespace sevf::compress

#endif // SEVF_COMPRESS_GZIP_LITE_H_
