/**
 * @file
 * LZSS codec: 4 KiB sliding window, 3..18-byte matches, flag-byte
 * framing. Stands in for the gzip-class kernel codecs: it compresses a
 * little less and decompresses markedly slower than LZ4, which is the
 * trade-off behind the paper's "use LZ4" guidance (Fig 5).
 */
#ifndef SEVF_COMPRESS_LZSS_H_
#define SEVF_COMPRESS_LZSS_H_

#include "compress/codec.h"

namespace sevf::compress {

class LzssCodec : public Codec
{
  public:
    CodecKind kind() const override { return CodecKind::kLzss; }
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

#endif // SEVF_COMPRESS_LZSS_H_
