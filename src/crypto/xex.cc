#include "crypto/xex.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "base/bytes.h"
#include "base/logging.h"
#include "base/parallel.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace sevf::crypto {

namespace {

/**
 * The XTS tweak is a 128-bit little-endian polynomial over GF(2), kept
 * as two u64 halves so doubling and XOR run word-wise instead of the
 * old byte-at-a-time loops.
 */
struct Tweak128 {
    u64 lo;
    u64 hi;
};

/** Multiply by alpha (= x) in GF(2^128): the XTS tweak-doubling step. */
inline void
gfDouble(Tweak128 &t)
{
    u64 carry = t.hi >> 63;
    t.hi = (t.hi << 1) | (t.lo >> 63);
    t.lo = (t.lo << 1) ^ (0x87 & (0 - carry));
}

/**
 * Multiply by x^i for 0 <= i < 256 in O(1): shift the 128-bit
 * polynomial left by @p i bits into six words, then fold everything at
 * or above bit 128 back down with the reduction taps of
 * x^128 + x^7 + x^2 + x + 1 (GHASH-style word-wise reduction). This is
 * what makes a mid-page tweakFor O(1) instead of O(line_index)
 * doubling steps.
 */
inline void
gfMulXPow(Tweak128 &t, unsigned i)
{
    if (i == 0) {
        return;
    }
    u64 w[6] = {};
    unsigned word = i / 64;
    unsigned bit = i % 64;
    if (bit == 0) {
        w[word] = t.lo;
        w[word + 1] = t.hi;
    } else {
        w[word] = t.lo << bit;
        w[word + 1] = (t.lo >> (64 - bit)) | (t.hi << bit);
        w[word + 2] = t.hi >> (64 - bit);
    }
    // A bit at position 128+k folds to k, k+1, k+2, k+7. Top-down so
    // each fold only feeds words that are still to be processed.
    for (int idx = 5; idx >= 2; --idx) {
        u64 h = w[idx];
        if (h == 0) {
            continue;
        }
        w[idx] = 0;
        w[idx - 2] ^= h ^ (h << 1) ^ (h << 2) ^ (h << 7);
        w[idx - 1] ^= (h >> 63) ^ (h >> 62) ^ (h >> 57);
    }
    t.lo = w[0];
    t.hi = w[1];
}

inline Tweak128
loadTweak(const u8 *p)
{
    return {loadLe<u64>(p), loadLe<u64>(p + 8)};
}

inline void
xorTweak(u8 *block, const Tweak128 &t)
{
    u64 b0, b1;
    std::memcpy(&b0, block, 8);
    std::memcpy(&b1, block + 8, 8);
    b0 ^= t.lo;
    b1 ^= t.hi;
    std::memcpy(block, &b0, 8);
    std::memcpy(block + 8, &b1, 8);
}

/**
 * Bytes per parallel chunk for the page-parallel bulk paths. Tweak
 * chains restart at every 4 KiB page, so chunking on page boundaries
 * is bit-identical to the serial pass at any thread count.
 */
constexpr u64 kChunkBytes = 16 * kPageSize;

} // namespace

XexCipher::XexCipher(const Aes128Key &key, const Aes128Key &tweak_key)
    : data_cipher_(key), tweak_cipher_(tweak_key)
{
    // The key schedules are derived secrets: label the ciphers' storage
    // with whatever labels the caller put on the raw keys (the PSP marks
    // freshly generated VEKs kVek), joined with kVek since any key fed
    // to the memory-encryption engine protects guest memory.
    taint::TaintSet from_keys =
        taint::query(key.data(), key.size()) |
        taint::query(tweak_key.data(), tweak_key.size());
    if (from_keys != taint::kNone) {
        key_label_.set(&data_cipher_,
                       sizeof(data_cipher_) + sizeof(tweak_cipher_),
                       from_keys | taint::kVek);
    }
}

AesBlock
XexCipher::tweakFor(u64 line_addr) const
{
    // XTS-style: one AES invocation per 4 KiB page, then a single O(1)
    // jump to the line's position in the page (multiply by x^i). Tweaks
    // stay unique per physical line, which is the property everything
    // else relies on (§7.1).
    AesBlock t = {};
    storeLe<u64>(t.data(), alignDown(line_addr, kPageSize));
    tweak_cipher_.encryptBlock(t.data());
    unsigned line_index =
        static_cast<unsigned>((line_addr % kPageSize) / 16);
    Tweak128 tw = loadTweak(t.data());
    gfMulXPow(tw, line_index);
    storeLe<u64>(t.data(), tw.lo);
    storeLe<u64>(t.data() + 8, tw.hi);
    return t;
}

void
XexCipher::cryptRange(const u8 *src, u8 *dst, u64 len, u64 addr,
                      bool enc) const
{
    Tweak128 t{0, 0};
    u64 next_tweak_addr = ~u64{0};
    for (u64 off = 0; off < len; off += 16) {
        u64 line_addr = addr + off;
        if (line_addr % kPageSize == 0 || line_addr != next_tweak_addr) {
            AesBlock base = tweakFor(line_addr);
            t = loadTweak(base.data());
        } else {
            gfDouble(t);
        }
        next_tweak_addr = line_addr + 16;
        // One load and one store per line: in place or out of place,
        // each byte crosses the buffers once.
        u8 block[16];
        std::memcpy(block, src + off, 16);
        xorTweak(block, t);
        if (enc) {
            data_cipher_.encryptBlock(block);
        } else {
            data_cipher_.decryptBlock(block);
        }
        xorTweak(block, t);
        std::memcpy(dst + off, block, 16);
    }
}

void
XexCipher::crypt(ByteSpan src, MutByteSpan dst, u64 addr, bool enc) const
{
    SEVF_CHECK(src.size() == dst.size());
    SEVF_CHECK(src.size() % 16 == 0);
    SEVF_CHECK(addr % 16 == 0);
    // In place or disjoint: with a partial overlap one chunk would read
    // lines another chunk has already rewritten.
    auto s = reinterpret_cast<std::uintptr_t>(src.data());
    auto d = reinterpret_cast<std::uintptr_t>(dst.data());
    SEVF_CHECK(s == d || s + src.size() <= d || d + dst.size() <= s);
    // Page-parallel bulk path: every 16-byte line's tweak depends only
    // on its own address, so disjoint page-aligned chunks run
    // independently and bit-identically at any host thread count.
    u64 page_base = alignDown(addr, kPageSize);
    u64 span = addr + src.size() - page_base;
    base::parallelFor(
        0, pagesFor(span), kChunkBytes / kPageSize,
        [&](u64 page_lo, u64 page_hi) {
            u64 lo = std::max(addr, page_base + page_lo * kPageSize);
            u64 hi =
                std::min(addr + src.size(), page_base + page_hi * kPageSize);
            if (lo < hi) {
                cryptRange(src.data() + (lo - addr),
                           dst.data() + (lo - addr), hi - lo, lo, enc);
            }
        });
}

void
XexCipher::encrypt(ByteSpan src, MutByteSpan dst, u64 addr) const
{
    static obs::KernelMetrics &metrics = obs::kernelMetrics("xex_encrypt");
    obs::KernelTimer timer(metrics, src.size());
    SEVF_SPAN("xex.encrypt", "bytes", static_cast<u64>(src.size()));
    crypt(src, dst, addr, true);
    // Encryption is a declassification boundary: dst now holds
    // ciphertext, which the host may see. (Plaintext labelling is page
    // granular and lives in GuestMemory's shadow, not on the buffers
    // decrypt() fills, so decrypt() deliberately does not mark.)
    taint::clearRange(dst.data(), dst.size());
}

void
XexCipher::decrypt(ByteSpan src, MutByteSpan dst, u64 addr) const
{
    static obs::KernelMetrics &metrics = obs::kernelMetrics("xex_decrypt");
    obs::KernelTimer timer(metrics, src.size());
    SEVF_SPAN("xex.decrypt", "bytes", static_cast<u64>(src.size()));
    crypt(src, dst, addr, false);
}

} // namespace sevf::crypto
