/**
 * @file
 * Compression codec interface and registry.
 *
 * The paper's Fig 5 trade-off (measurement time vs decompression time)
 * is explored with three codecs: none (vmlinux-style), LZ4 (the winner,
 * used for bzImages in SEVeriFast), and gzip-lite as the stand-in for
 * the slower gzip-class algorithms Linux also supports.
 */
#ifndef SEVF_COMPRESS_CODEC_H_
#define SEVF_COMPRESS_CODEC_H_

#include <string_view>

#include "base/status.h"
#include "base/types.h"

namespace sevf::compress {

/** Available codecs. */
enum class CodecKind : u8 {
    kNone = 0,     //!< identity (uncompressed vmlinux / raw initrd)
    kLz4 = 1,      //!< LZ4 block format (CONFIG_KERNEL_LZ4)
    kGzipLite = 2, //!< LZ77 + canonical Huffman (CONFIG_KERNEL_GZIP class)
};

const char *codecName(CodecKind kind);

/**
 * A compression codec. Streams are framed with a small self-describing
 * header so a decoder can validate kind and size.
 */
class Codec
{
  public:
    virtual ~Codec() = default;

    Codec() = default;
    Codec(const Codec &) = delete;
    Codec &operator=(const Codec &) = delete;

    virtual CodecKind kind() const = 0;
    std::string_view name() const { return codecName(kind()); }

    /** Compress @p input into a framed stream. */
    virtual ByteVec compress(ByteSpan input) const = 0;

    /**
     * Decompress a framed stream produced by compress() into the
     * caller's @p out and return the frame's declared size; only
     * out[0, declared) is written. This is the codec's one decode loop.
     * Fails with kCorrupted on malformed input (truncation, bad magic,
     * bad offsets), and before writing anything when the declared size
     * exceeds out.size().
     */
    virtual Result<u64> decompressInto(ByteSpan stream,
                                       MutByteSpan out) const = 0;

    /**
     * decompressInto() a fresh vector of the declared size. Every codec
     * forwards this to decompressChecked(), in its own module: the TCB
     * audit resolves a call by its receiver's type and does not model
     * inheritance, so a call on, say, a GzipLiteCodec must land in
     * compress/gzip_lite for that module's ban to see it.
     */
    virtual Result<ByteVec> decompress(ByteSpan stream) const = 0;

    /** Codec kind recorded in the frame header. */
    static Result<CodecKind> streamKind(ByteSpan stream);

  protected:
    /**
     * The shared decompress(): the declared size is first checked
     * against what the payload can encode (maxDecodedSize), so a forged
     * header fails with kCorrupted instead of sizing an allocation.
     */
    Result<ByteVec> decompressChecked(ByteSpan stream) const;

    /** Most bytes a payload of @p payload_size bytes can decode to. */
    virtual u64 maxDecodedSize(u64 payload_size) const = 0;
};

/** Singleton codec instance for @p kind. */
const Codec &codecFor(CodecKind kind);

} // namespace sevf::compress

#endif // SEVF_COMPRESS_CODEC_H_
