#include "compress/codec.h"

#include "base/logging.h"
#include "base/trust_zones.h"
#include "compress/frame.h"
#include "compress/gzip_lite.h"
#include "compress/lz4.h"

namespace sevf::compress {

namespace detail {

void
writeHeader(ByteWriter &w, CodecKind kind, u64 decompressed_size)
{
    w.str(std::string_view(kMagic, 4));
    w.u8le(static_cast<u8>(kind));
    w.zeros(3);
    w.u64le(decompressed_size);
}

Result<Header>
readHeader(ByteReader &r) SEVF_UNTRUSTED_INPUT
{
    SEVF_ASSIGN_OR_RETURN(ByteVec magic, r.bytes(4));
    if (!std::equal(magic.begin(), magic.end(), kMagic)) {
        return errCorrupted("bad compression frame magic");
    }
    SEVF_ASSIGN_OR_RETURN(u8 kind, r.u8le());
    if (kind > static_cast<u8>(CodecKind::kGzipLite)) {
        return errCorrupted("unknown codec kind in frame header");
    }
    SEVF_RETURN_IF_ERROR(r.skip(3));
    SEVF_ASSIGN_OR_RETURN(u64 size, r.u64le());
    return Header{static_cast<CodecKind>(kind), size};
}

Result<Frame>
openFrame(ByteSpan stream, CodecKind kind, MutByteSpan out)
    SEVF_UNTRUSTED_INPUT
{
    ByteReader r(stream);
    SEVF_ASSIGN_OR_RETURN(Header h, readHeader(r));
    if (h.kind != kind) {
        return errCorrupted(std::string("frame is not a '") +
                            codecName(kind) + "' stream");
    }
    if (h.decompressed_size > out.size()) {
        return errCorrupted(std::string(codecName(kind)) +
                            ": declared size exceeds the output area");
    }
    SEVF_ASSIGN_OR_RETURN(ByteSpan payload, r.view(r.remaining()));
    return Frame{payload, out.first(h.decompressed_size)};
}

} // namespace detail

const char *
codecName(CodecKind kind)
{
    switch (kind) {
      case CodecKind::kNone: return "none";
      case CodecKind::kLz4: return "lz4";
      case CodecKind::kGzipLite: return "gzip-lite";
    }
    return "unknown";
}

Result<CodecKind>
Codec::streamKind(ByteSpan stream)
{
    ByteReader r(stream);
    SEVF_ASSIGN_OR_RETURN(detail::Header h, detail::readHeader(r));
    return h.kind;
}

Result<ByteVec>
Codec::decompressChecked(ByteSpan stream) const
{
    ByteReader r(stream);
    SEVF_ASSIGN_OR_RETURN(detail::Header h, detail::readHeader(r));
    if (h.decompressed_size > maxDecodedSize(r.remaining())) {
        return errCorrupted(std::string(name()) +
                            ": declared size exceeds what the payload "
                            "can encode");
    }
    ByteVec out(h.decompressed_size);
    SEVF_RETURN_IF_ERROR(decompressInto(stream, out).status());
    return out;
}

namespace {

/** Identity codec: frames but does not transform. */
class NoneCodec : public Codec
{
  public:
    CodecKind kind() const override { return CodecKind::kNone; }

    ByteVec
    compress(ByteSpan input) const override
    {
        ByteWriter w;
        detail::writeHeader(w, CodecKind::kNone, input.size());
        w.bytes(input);
        return w.take();
    }

    Result<u64>
    decompressInto(ByteSpan stream, MutByteSpan out) const override
    {
        SEVF_ASSIGN_OR_RETURN(detail::Frame f,
                              detail::openFrame(stream, kind(), out));
        if (f.out.size() != f.payload.size()) {
            return errCorrupted("'none' frame size mismatch");
        }
        std::copy(f.payload.begin(), f.payload.end(), f.out.begin());
        return f.out.size();
    }

    Result<ByteVec>
    decompress(ByteSpan stream) const override
    {
        return decompressChecked(stream);
    }

  protected:
    u64 maxDecodedSize(u64 payload_size) const override
    {
        return payload_size;
    }
};

} // namespace

const Codec &
codecFor(CodecKind kind)
{
    static const NoneCodec none;
    static const Lz4Codec lz4;
    static const GzipLiteCodec gzip_lite;
    switch (kind) {
      case CodecKind::kNone: return none;
      case CodecKind::kLz4: return lz4;
      case CodecKind::kGzipLite: return gzip_lite;
    }
    panic("unknown codec kind");
}

} // namespace sevf::compress
