/**
 * @file
 * MSB-first bit stream reader/writer for the Huffman codec.
 */
#ifndef SEVF_COMPRESS_BITSTREAM_H_
#define SEVF_COMPRESS_BITSTREAM_H_

#include "base/status.h"
#include "base/types.h"

namespace sevf::compress {

/** Writes bits MSB-first into a byte vector. */
class BitWriter
{
  public:
    /** Append the low @p count bits of @p bits (count <= 32). */
    void
    put(u32 bits, int count)
    {
        for (int i = count - 1; i >= 0; --i) {
            cur_ = static_cast<u8>(cur_ << 1 | ((bits >> i) & 1));
            if (++filled_ == 8) {
                out_.push_back(cur_);
                cur_ = 0;
                filled_ = 0;
            }
        }
    }

    /** Flush the partial byte (zero-padded) and take the buffer. */
    ByteVec
    finish()
    {
        if (filled_ > 0) {
            out_.push_back(static_cast<u8>(cur_ << (8 - filled_)));
            cur_ = 0;
            filled_ = 0;
        }
        return std::move(out_);
    }

  private:
    ByteVec out_;
    u8 cur_ = 0;
    int filled_ = 0;
};

/** Reads bits MSB-first from a span. */
class BitReader
{
  public:
    explicit BitReader(ByteSpan data) : data_(data) {}

    /** Read @p count bits (<= 32); fails at end of stream. */
    Result<u32>
    get(int count)
    {
        u32 v = 0;
        for (int i = 0; i < count; ++i) {
            if (pos_ >= data_.size() * 8) {
                return errCorrupted("bitstream: read past end");
            }
            u8 byte = data_[pos_ / 8];
            v = v << 1 | ((byte >> (7 - pos_ % 8)) & 1);
            ++pos_;
        }
        return v;
    }

    /** Read one bit. */
    Result<u32> bit() { return get(1); }

  private:
    ByteSpan data_;
    std::size_t pos_ = 0;
};

} // namespace sevf::compress

#endif // SEVF_COMPRESS_BITSTREAM_H_
