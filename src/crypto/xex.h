/**
 * @file
 * XEX tweakable cipher over AES-128, modelling the SEV memory encryption
 * engine in the memory controller.
 *
 * SEV encrypts each 16-byte line with a physical-address-dependent tweak,
 * so identical plaintext at different system physical addresses yields
 * different ciphertext. That property is load-bearing for the paper: it is
 * why encrypted guest pages cannot be deduplicated (§7.1) and why KVM pins
 * guest pages during boot (§6.2).
 */
#ifndef SEVF_CRYPTO_XEX_H_
#define SEVF_CRYPTO_XEX_H_

#include "crypto/aes128.h"
#include "taint/taint.h"

namespace sevf::crypto {

/**
 * Per-VM-key XEX cipher: C = E_k(P ^ T(addr)) ^ T(addr) where the tweak
 * T(addr) = E_k2(addr || 0...) depends on the system physical address of
 * the 16-byte line.
 */
class XexCipher
{
  public:
    /**
     * @param key data encryption key (the per-guest VEK)
     * @param tweak_key key for deriving address tweaks; the real hardware
     *        derives this internally, we take it with the VEK
     */
    XexCipher(const Aes128Key &key, const Aes128Key &tweak_key);

    /**
     * Encrypt @p src (multiple of 16 bytes) located at @p addr into
     * @p dst. @p dst is either @p src itself (in place) or a disjoint
     * buffer of the same size; a partial overlap is a checked error.
     * Encryption declassifies @p dst: it now holds ciphertext.
     */
    void encrypt(ByteSpan src, MutByteSpan dst, u64 addr) const;

    /** Decrypt @p src into @p dst; same @p src / @p dst contract. */
    void decrypt(ByteSpan src, MutByteSpan dst, u64 addr) const;

  private:
    AesBlock tweakFor(u64 line_addr) const;
    /** Contract checks + the page-parallel split shared by both ways. */
    void crypt(ByteSpan src, MutByteSpan dst, u64 addr, bool enc) const;
    /** The one serial XEX loop over consecutive lines, either way. */
    void cryptRange(const u8 *src, u8 *dst, u64 len, u64 addr,
                    bool enc) const;

    Aes128 data_cipher_;
    Aes128 tweak_cipher_;
    /**
     * Taint carried by the key schedules: inherited from the key bytes
     * at construction so the engine object itself (which contains the
     * expanded VEK) is labelled secret, and cleared with the engine.
     */
    taint::ScopedLabel key_label_;
};

} // namespace sevf::crypto

#endif // SEVF_CRYPTO_XEX_H_
