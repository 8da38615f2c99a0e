/**
 * @file
 * Internal frame header shared by all codecs:
 *   magic "SVFC" | kind (1B) | reserved (3B) | decompressed size (u64 LE)
 * followed by the codec payload.
 */
#ifndef SEVF_COMPRESS_FRAME_H_
#define SEVF_COMPRESS_FRAME_H_

#include "base/bytes.h"
#include "compress/codec.h"

namespace sevf::compress::detail {

inline constexpr char kMagic[4] = {'S', 'V', 'F', 'C'};
inline constexpr std::size_t kHeaderSize = 4 + 1 + 3 + 8;

/** Append a frame header for @p kind / @p decompressed_size to @p w. */
void writeHeader(ByteWriter &w, CodecKind kind, u64 decompressed_size);

/** Parsed frame header. */
struct Header {
    CodecKind kind;
    u64 decompressed_size;
};

/** Validate and parse the header; the reader is left at the payload. */
Result<Header> readHeader(ByteReader &r);

/** A validated frame: its payload and where it decodes to. */
struct Frame {
    ByteSpan payload;
    MutByteSpan out; //!< the caller's area cut to the declared size
};

/**
 * Open @p stream as a @p kind frame whose declared size fits in @p out;
 * anything else is kCorrupted.
 */
Result<Frame> openFrame(ByteSpan stream, CodecKind kind, MutByteSpan out);

} // namespace sevf::compress::detail

#endif // SEVF_COMPRESS_FRAME_H_
