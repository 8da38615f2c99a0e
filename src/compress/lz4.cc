#include "compress/lz4.h"

#include <cstring>

#include "base/bytes.h"
#include "base/trust_zones.h"
#include "compress/frame.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace sevf::compress {

namespace {

constexpr std::size_t kMinMatch = 4;
// The spec's end-of-block restrictions: the last match must start at
// least 12 bytes before the end, and the last 5 bytes are literals.
constexpr std::size_t kMfLimit = 12;
constexpr std::size_t kLastLiterals = 5;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashLog = 16;
// After 2^kSkipTrigger consecutive missed probes the search step grows
// by one, so incompressible regions are skimmed instead of probed at
// every byte (same acceleration scheme as the reference fast compressor).
constexpr std::size_t kSkipTrigger = 6;

u32
read32(const u8 *p)
{
    u32 v;
    std::memcpy(&v, p, 4);
    return v;
}

u32
hash4(u32 v)
{
    return (v * 2654435761u) >> (32 - kHashLog);
}

void
writeLength(ByteVec &out, std::size_t len)
{
    while (len >= 255) {
        out.push_back(255);
        len -= 255;
    }
    out.push_back(static_cast<u8>(len));
}

} // namespace

ByteVec
Lz4Codec::compressBlock(ByteSpan input)
{
    ByteVec out;
    out.reserve(input.size() / 2 + 64);

    const u8 *base = input.data();
    const std::size_t size = input.size();

    auto emit_literals_only = [&](std::size_t anchor) {
        std::size_t lit_len = size - anchor;
        u8 token = static_cast<u8>(std::min<std::size_t>(lit_len, 15) << 4);
        out.push_back(token);
        if (lit_len >= 15) {
            writeLength(out, lit_len - 15);
        }
        out.insert(out.end(), base + anchor, base + size);
    };

    if (size < kMfLimit + 1) {
        // Too small to contain any match per the spec's end rules.
        emit_literals_only(0);
        return out;
    }

    std::vector<u32> table(1u << kHashLog, 0);
    // Positions are stored +1 so 0 means "empty".
    const std::size_t mflimit = size - kMfLimit;
    std::size_t anchor = 0;
    std::size_t ip = 1; // position 0 can never match anything earlier

    table[hash4(read32(base))] = 1;
    std::size_t search_count = 1u << kSkipTrigger;

    while (ip < mflimit) {
        u32 seq = read32(base + ip);
        u32 h = hash4(seq);
        std::size_t ref = table[h];
        table[h] = static_cast<u32>(ip + 1);

        // ref must be strictly earlier than ip (the table may hold ip
        // itself or mid-match positions ahead of ip).
        bool match = ref != 0 && ref <= ip && (ip + 1 - ref) <= kMaxOffset &&
                     read32(base + (ref - 1)) == seq;
        if (!match) {
            // Step-accelerated scan: every 2^kSkipTrigger misses widen
            // the stride by one byte, so runs of incompressible data
            // cost O(n / step) probes instead of one probe per byte.
            ip += search_count++ >> kSkipTrigger;
            continue;
        }
        search_count = 1u << kSkipTrigger;
        std::size_t match_pos = ref - 1;

        // Extend the match forward, respecting the last-literals rule.
        // Compare 8 bytes at a time and pinpoint the diverging byte with
        // a count-trailing-zeros on the XOR difference.
        std::size_t max_len = size - kLastLiterals - ip;
        std::size_t len = kMinMatch;
        bool diverged = false;
        while (!diverged && len + 8 <= max_len) {
            u64 diff = loadLe<u64>(base + match_pos + len) ^
                       loadLe<u64>(base + ip + len);
            if (diff != 0) {
                len += static_cast<std::size_t>(__builtin_ctzll(diff)) >> 3;
                diverged = true;
            } else {
                len += 8;
            }
        }
        while (!diverged && len < max_len &&
               base[match_pos + len] == base[ip + len]) {
            ++len;
        }

        // Token: literal length high nibble, match length low nibble.
        std::size_t lit_len = ip - anchor;
        std::size_t ml_code = len - kMinMatch;
        u8 token =
            static_cast<u8>(std::min<std::size_t>(lit_len, 15) << 4 |
                            std::min<std::size_t>(ml_code, 15));
        out.push_back(token);
        if (lit_len >= 15) {
            writeLength(out, lit_len - 15);
        }
        out.insert(out.end(), base + anchor, base + ip);

        u16 offset = static_cast<u16>(ip - match_pos);
        out.push_back(static_cast<u8>(offset));
        out.push_back(static_cast<u8>(offset >> 8));
        if (ml_code >= 15) {
            writeLength(out, ml_code - 15);
        }

        // Index a couple of positions inside the match to improve the
        // chance of chaining matches (same trick as the reference fast
        // compressor).
        std::size_t mid = ip + len / 2;
        if (mid + 4 <= size) {
            table[hash4(read32(base + mid))] = static_cast<u32>(mid + 1);
        }

        ip += len;
        anchor = ip;
        if (ip + 4 <= size) {
            table[hash4(read32(base + ip))] = static_cast<u32>(ip + 1);
        }
    }

    emit_literals_only(anchor);
    return out;
}

Status
Lz4Codec::decompressBlock(ByteSpan block, MutByteSpan out)
    SEVF_UNTRUSTED_INPUT
{
    // The caller's area is sized upfront, so literals and matches land
    // via memcpy into flat memory with no growth checks.
    u8 *dst = out.data();
    const std::size_t out_size = out.size();
    std::size_t op = 0;

    std::size_t ip = 0;
    const std::size_t in_size = block.size();

    while (ip < in_size) {
        u8 token = block[ip++];

        // Literal run.
        std::size_t lit_len = token >> 4;
        if (lit_len == 15) {
            u8 b;
            do {
                if (ip >= in_size) {
                    return errCorrupted("lz4: truncated literal length");
                }
                b = block[ip++];
                lit_len += b;
            } while (b == 255);
        }
        if (ip + lit_len > in_size) {
            return errCorrupted("lz4: literal run past end of block");
        }
        if (lit_len > out_size - op) {
            return errCorrupted("lz4: output overflows declared size");
        }
        if (lit_len != 0) {
            // Guarded: dst may be null for an empty area, and memcpy's
            // pointer arguments are attribute-nonnull even when the
            // length is zero.
            std::memcpy(dst + op, block.data() + ip, lit_len);
        }
        op += lit_len;
        ip += lit_len;

        if (ip == in_size) {
            break; // last sequence carries literals only
        }

        // Match.
        if (ip + 2 > in_size) {
            return errCorrupted("lz4: truncated match offset");
        }
        std::size_t offset = block[ip] | (block[ip + 1] << 8);
        ip += 2;
        if (offset == 0 || offset > op) {
            return errCorrupted("lz4: invalid match offset");
        }

        std::size_t match_len = (token & 0x0f);
        if (match_len == 15) {
            u8 b;
            do {
                if (ip >= in_size) {
                    return errCorrupted("lz4: truncated match length");
                }
                b = block[ip++];
                match_len += b;
            } while (b == 255);
        }
        match_len += kMinMatch;

        if (match_len > out_size - op) {
            return errCorrupted("lz4: match overflows declared size");
        }
        const u8 *src = dst + op - offset;
        u8 *d = dst + op;
        op += match_len;
        if (offset >= 8 && match_len + 8 <= out_size - (op - match_len)) {
            // Wild copy: step 8 bytes at a time, allowed to overshoot
            // the match end by up to 7 bytes. The overshoot lands in
            // not-yet-written output (guarded above) and is rewritten by
            // later sequences before anything reads it. offset >= 8
            // guarantees each 8-byte load precedes every overlapping
            // store.
            u8 *end = d + match_len;
            do {
                // Audited above: the <= out_size guard on entry bounds
                // the whole overshooting copy.
                std::memcpy(d, src, 8); // sevf_lint: allow(untrusted-bounds)
                d += 8;
                src += 8;
            } while (d < end);
        } else {
            // Overlapping (offset < 8, i.e. RLE-style) or end-of-buffer
            // matches copy bytewise.
            for (std::size_t i = 0; i < match_len; ++i) {
                d[i] = src[i];
            }
        }
    }

    if (op != out_size) {
        return errCorrupted("lz4: decompressed size mismatch");
    }
    return Status::ok();
}

ByteVec
Lz4Codec::compress(ByteSpan input) const
{
    static obs::KernelMetrics &metrics = obs::kernelMetrics("lz4_compress");
    obs::KernelTimer timer(metrics, input.size());
    SEVF_SPAN("lz4.compress", "bytes", static_cast<u64>(input.size()));
    ByteWriter w;
    detail::writeHeader(w, CodecKind::kLz4, input.size());
    ByteVec block = compressBlock(input);
    w.bytes(block);
    return w.take();
}

Result<u64>
Lz4Codec::decompressInto(ByteSpan stream, MutByteSpan out) const
    SEVF_UNTRUSTED_INPUT
{
    static obs::KernelMetrics &metrics = obs::kernelMetrics("lz4_decompress");
    obs::KernelTimer timer(metrics, stream.size());
    SEVF_SPAN("lz4.decompress", "bytes", static_cast<u64>(stream.size()));
    SEVF_ASSIGN_OR_RETURN(detail::Frame f,
                          detail::openFrame(stream, kind(), out));
    SEVF_RETURN_IF_ERROR(decompressBlock(f.payload, f.out));
    return f.out.size();
}

} // namespace sevf::compress
