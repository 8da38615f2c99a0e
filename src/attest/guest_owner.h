/**
 * @file
 * The guest owner's attestation service (the paper emulates it with a
 * local nginx server, §6.1).
 *
 * Receives an attestation report, verifies the chip signature against
 * the key server, compares the launch digest to the expected
 * measurement, and on success wraps a secret to the guest's ephemeral
 * DH key - Fig 1 steps 7-8.
 */
#ifndef SEVF_ATTEST_GUEST_OWNER_H_
#define SEVF_ATTEST_GUEST_OWNER_H_

#include "base/rng.h"
#include "base/status.h"
#include "crypto/sha256.h"
#include "psp/key_server.h"
#include "taint/taint.h"

namespace sevf::attest {

/** The owner's reply: their DH public value plus the sealed secret. */
struct ProvisionResponse {
    u64 owner_dh_public = 0;
    ByteVec sealed_secret;
};

class GuestOwner
{
  public:
    /**
     * @param key_server trusted chip-key registry
     * @param expected_measurement from the expected-measurement tool
     * @param secret what to provision on successful attestation
     * @param seed deterministic randomness for DH/nonces
     */
    GuestOwner(const psp::KeyServer &key_server,
               crypto::Sha256Digest expected_measurement, ByteVec secret,
               u64 seed);

    /**
     * Validate @p report_wire. The first 8 bytes of report_data are the
     * guest's DH public value (bound into the signed report, so the
     * host cannot swap it). Fails with kIntegrityFailure on a signature
     * or measurement mismatch.
     */
    Result<ProvisionResponse> handleReport(ByteSpan report_wire);

    /** How many reports were accepted / rejected (for tests/examples). */
    u64 acceptedCount() const { return accepted_; }
    u64 rejectedCount() const { return rejected_; }

  private:
    const psp::KeyServer &key_server_;
    const crypto::Sha256Digest expected_measurement_;
    ByteVec secret_;
    /** The provisioned secret is labelled for the owner's lifetime. */
    taint::ScopedLabel secret_label_;
    Rng rng_;
    u64 accepted_ = 0;
    u64 rejected_ = 0;
};

} // namespace sevf::attest

#endif // SEVF_ATTEST_GUEST_OWNER_H_
