#include "compress/lzss.h"

#include <cstring>

#include "base/bytes.h"
#include "compress/frame.h"

namespace sevf::compress {

namespace {

constexpr std::size_t kWindow = 4096;    // 12-bit offset
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 18;    // 4-bit length + kMinMatch
constexpr std::size_t kHashLog = 13;
constexpr std::size_t kMaxChain = 16;    // positions probed per lookup

u32
hash3(const u8 *p)
{
    u32 v = p[0] | (p[1] << 8) | (p[2] << 16);
    return (v * 2654435761u) >> (32 - kHashLog);
}

} // namespace

ByteVec
LzssCodec::compress(ByteSpan input) const
{
    ByteWriter w;
    detail::writeHeader(w, CodecKind::kLzss, input.size());

    const u8 *base = input.data();
    const std::size_t size = input.size();

    // head[h] -> most recent position + 1; prev[pos % kWindow] -> chain.
    std::vector<u32> head(1u << kHashLog, 0);
    std::vector<u32> prev(kWindow, 0);

    ByteVec body;
    body.reserve(size / 2 + 64);

    std::size_t flag_pos = 0;
    int flag_bit = 8;
    auto begin_item = [&](bool is_match) {
        if (flag_bit == 8) {
            flag_pos = body.size();
            body.push_back(0);
            flag_bit = 0;
        }
        if (is_match) {
            body[flag_pos] |= static_cast<u8>(1u << flag_bit);
        }
        ++flag_bit;
    };

    std::size_t ip = 0;
    while (ip < size) {
        std::size_t best_len = 0;
        std::size_t best_pos = 0;

        if (ip + kMinMatch <= size) {
            u32 h = hash3(base + ip);
            u32 cand = head[h];
            std::size_t probes = 0;
            while (cand != 0 && probes < kMaxChain) {
                std::size_t pos = cand - 1;
                if (ip - pos > kWindow) {
                    break;
                }
                std::size_t limit = std::min(size - ip, kMaxMatch);
                std::size_t len = 0;
                while (len < limit && base[pos + len] == base[ip + len]) {
                    ++len;
                }
                if (len > best_len) {
                    best_len = len;
                    best_pos = pos;
                    if (len == kMaxMatch) {
                        break;
                    }
                }
                cand = prev[pos % kWindow];
                ++probes;
            }
        }

        if (best_len >= kMinMatch) {
            begin_item(true);
            std::size_t offset = ip - best_pos; // 1..kWindow
            u16 pair = static_cast<u16>((offset - 1) << 4 |
                                        (best_len - kMinMatch));
            body.push_back(static_cast<u8>(pair));
            body.push_back(static_cast<u8>(pair >> 8));
            // Insert all covered positions into the chain.
            std::size_t end = ip + best_len;
            for (; ip < end; ++ip) {
                if (ip + kMinMatch <= size) {
                    u32 h = hash3(base + ip);
                    prev[ip % kWindow] = head[h];
                    head[h] = static_cast<u32>(ip + 1);
                }
            }
        } else {
            begin_item(false);
            body.push_back(base[ip]);
            if (ip + kMinMatch <= size) {
                u32 h = hash3(base + ip);
                prev[ip % kWindow] = head[h];
                head[h] = static_cast<u32>(ip + 1);
            }
            ++ip;
        }
    }

    w.bytes(body);
    return w.take();
}

u64
LzssCodec::maxDecodedSize(u64 payload_size) const
{
    // 17 bytes (a flag byte, eight 2-byte matches) decode to at most
    // 8 * kMaxMatch = 144.
    return u64{8 * kMaxMatch} * payload_size / 17;
}

Result<u64>
LzssCodec::decompressInto(ByteSpan stream, MutByteSpan out) const
{
    SEVF_ASSIGN_OR_RETURN(detail::Frame f,
                          detail::openFrame(stream, kind(), out));
    ByteSpan body = f.payload;
    u8 *dst = f.out.data();
    const std::size_t size = f.out.size();
    std::size_t op = 0;
    std::size_t ip = 0;
    u8 flags = 0;
    int flag_bit = 8;
    while (op < size) {
        if (flag_bit == 8) {
            if (ip >= body.size()) {
                return errCorrupted("lzss: truncated flag byte");
            }
            flags = body[ip++];
            flag_bit = 0;
        }
        bool is_match = (flags >> flag_bit) & 1;
        ++flag_bit;

        if (is_match) {
            if (ip + 2 > body.size()) {
                return errCorrupted("lzss: truncated match pair");
            }
            u16 pair = static_cast<u16>(body[ip] | (body[ip + 1] << 8));
            ip += 2;
            std::size_t offset = (pair >> 4) + 1;
            std::size_t len = (pair & 0x0f) + kMinMatch;
            if (offset > op) {
                return errCorrupted("lzss: match offset before start");
            }
            if (len > size - op) {
                return errCorrupted("lzss: match overflows declared size");
            }
            for (std::size_t i = 0; i < len; ++i, ++op) {
                dst[op] = dst[op - offset];
            }
        } else {
            if (ip >= body.size()) {
                return errCorrupted("lzss: truncated literal");
            }
            dst[op++] = body[ip++];
        }
    }
    return size;
}

} // namespace sevf::compress
