#include "compress/gzip_lite.h"

#include <cstring>

#include "base/bytes.h"
#include "compress/frame.h"
#include "compress/huffman.h"

namespace sevf::compress {

namespace {

constexpr std::size_t kWindow = 32768;
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 130; // 3 + 31*4 + 3
constexpr std::size_t kHashLog = 15;
constexpr std::size_t kMaxChain = 32;
constexpr u32 kEob = 256;
constexpr u32 kFirstLenSym = 257;
constexpr u32 kAlphabet = 289; // 256 literals + EOB + 32 length buckets

u32
hash3(const u8 *p)
{
    u32 v = p[0] | (p[1] << 8) | (p[2] << 16);
    return (v * 2654435761u) >> (32 - kHashLog);
}

/** Length -> (symbol, extra bits value). */
std::pair<u32, u32>
lengthSymbol(std::size_t len)
{
    u32 bucket = static_cast<u32>((len - kMinMatch) / 4);
    u32 extra = static_cast<u32>((len - kMinMatch) % 4);
    return {kFirstLenSym + bucket, extra};
}

/** Distance -> (4-bit bucket, extra bits count, extra value). */
struct DistCode {
    u32 bucket;
    int extra_bits;
    u32 extra;
};

DistCode
distCode(std::size_t dist)
{
    u32 bucket = 0;
    while ((2u << bucket) <= dist && bucket < 15) {
        ++bucket;
    }
    // bucket = floor(log2(dist)); dist in [2^bucket, 2^(bucket+1)).
    return {bucket, static_cast<int>(bucket),
            static_cast<u32>(dist - (1u << bucket))};
}

/** One LZ77 token. */
struct Token {
    bool is_match;
    u8 literal;
    u32 length;
    u32 distance;
};

std::vector<Token>
tokenize(ByteSpan input)
{
    std::vector<Token> tokens;
    const u8 *base = input.data();
    const std::size_t size = input.size();

    std::vector<u32> head(1u << kHashLog, 0);
    std::vector<u32> prev(kWindow, 0);

    std::size_t ip = 0;
    while (ip < size) {
        std::size_t best_len = 0;
        std::size_t best_dist = 0;
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
                    best_dist = ip - pos;
                    if (len == kMaxMatch) {
                        break;
                    }
                }
                cand = prev[pos % kWindow];
                ++probes;
            }
        }

        auto insert = [&](std::size_t pos) {
            if (pos + kMinMatch <= size) {
                u32 h = hash3(base + pos);
                prev[pos % kWindow] = head[h];
                head[h] = static_cast<u32>(pos + 1);
            }
        };

        if (best_len >= kMinMatch) {
            tokens.push_back({true, 0, static_cast<u32>(best_len),
                              static_cast<u32>(best_dist)});
            std::size_t end = ip + best_len;
            for (; ip < end; ++ip) {
                insert(ip);
            }
        } else {
            tokens.push_back({false, base[ip], 0, 0});
            insert(ip);
            ++ip;
        }
    }
    return tokens;
}

} // namespace

ByteVec
GzipLiteCodec::compress(ByteSpan input) const
{
    std::vector<Token> tokens = tokenize(input);

    // Frequencies over the lit/len alphabet.
    std::vector<u64> freqs(kAlphabet, 0);
    for (const Token &t : tokens) {
        if (t.is_match) {
            ++freqs[lengthSymbol(t.length).first];
        } else {
            ++freqs[t.literal];
        }
    }
    ++freqs[kEob];

    std::vector<u8> lengths = huffmanCodeLengths(freqs);
    HuffmanEncoder encoder(lengths);

    BitWriter bits;
    // Header: 4-bit code length per alphabet symbol.
    for (u8 len : lengths) {
        bits.put(len, 4);
    }
    for (const Token &t : tokens) {
        if (t.is_match) {
            auto [sym, extra] = lengthSymbol(t.length);
            encoder.encode(bits, sym);
            bits.put(extra, 2);
            DistCode dc = distCode(t.distance);
            bits.put(dc.bucket, 4);
            if (dc.extra_bits > 0) {
                bits.put(dc.extra, dc.extra_bits);
            }
        } else {
            encoder.encode(bits, t.literal);
        }
    }
    encoder.encode(bits, kEob);

    ByteWriter w;
    detail::writeHeader(w, CodecKind::kGzipLite, input.size());
    ByteVec body = bits.finish();
    w.bytes(body);
    return w.take();
}

Result<ByteVec>
GzipLiteCodec::decompress(ByteSpan stream) const
{
    ByteReader r(stream);
    Result<detail::Header> h = detail::readHeader(r);
    if (!h.isOk()) {
        return h.status();
    }
    if (h->kind != CodecKind::kGzipLite) {
        return errCorrupted("frame is not a gzip-lite stream");
    }
    Result<ByteSpan> payload = r.view(r.remaining());
    if (!payload.isOk()) {
        return payload.status();
    }

    BitReader bits(*payload);
    std::vector<u8> lengths(kAlphabet);
    for (u8 &len : lengths) {
        Result<u32> v = bits.get(4);
        if (!v.isOk()) {
            return v.status();
        }
        len = static_cast<u8>(*v);
    }
    Result<HuffmanDecoder> decoder = HuffmanDecoder::build(lengths);
    if (!decoder.isOk()) {
        return decoder.status();
    }

    ByteVec out;
    for (;;) {
        Result<u32> sym = decoder->decode(bits);
        if (!sym.isOk()) {
            return sym.status();
        }
        if (*sym == kEob) {
            break;
        }
        if (*sym < 256) {
            if (out.size() >= h->decompressed_size) {
                return errCorrupted("gzip-lite: output overflow");
            }
            out.push_back(static_cast<u8>(*sym));
            continue;
        }
        // Match.
        Result<u32> extra = bits.get(2);
        if (!extra.isOk()) {
            return extra.status();
        }
        std::size_t len =
            kMinMatch + (*sym - kFirstLenSym) * 4 + *extra;
        Result<u32> bucket = bits.get(4);
        if (!bucket.isOk()) {
            return bucket.status();
        }
        std::size_t dist = 1u << *bucket;
        if (*bucket > 0) {
            Result<u32> dextra = bits.get(static_cast<int>(*bucket));
            if (!dextra.isOk()) {
                return dextra.status();
            }
            dist += *dextra;
        }
        if (dist == 0 || dist > out.size()) {
            return errCorrupted("gzip-lite: invalid match distance");
        }
        if (out.size() + len > h->decompressed_size) {
            return errCorrupted("gzip-lite: match overflows output");
        }
        std::size_t from = out.size() - dist;
        for (std::size_t i = 0; i < len; ++i) {
            out.push_back(out[from + i]);
        }
    }
    if (out.size() != h->decompressed_size) {
        return errCorrupted("gzip-lite: size mismatch");
    }
    return out;
}

} // namespace sevf::compress
