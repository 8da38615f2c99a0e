/**
 * @file
 * Secret-flow taint labels for the SEV stack.
 *
 * The paper's security argument is that the fast-boot path never lets
 * secret material (VM encryption keys, the chip signing key, attestation
 * transport keys, provisioned guest secrets, guest-private plaintext)
 * reach anything the untrusted host can observe. This module makes that
 * argument checkable at runtime: secret bytes are labelled at their
 * source, labels propagate through the crypto engines and guest-memory
 * pages, and every host-visible sink (host writes into shared pages, the
 * fw_cfg staging window, public attestation-report fields) guards
 * against labelled bytes arriving without an explicit declassify().
 *
 * Granularity and lifetime rules:
 *  - Labels live in a process-global interval map over host addresses.
 *    Long-lived carriers (cipher key schedules, PSP key members) hold a
 *    ScopedLabel that clears on destruction; transient stack/heap
 *    buffers use ScopedTaint so labels never outlive the bytes.
 *  - Guest-physical pages carry labels in GuestMemory's per-page shadow
 *    (stable for the VM's lifetime), the durable propagation channel for
 *    page copies and in-place encryption.
 *  - Declassification points are cryptographic one-way/encryption
 *    boundaries: XEX/CTR encryption output, MACs, and hashes of secrets
 *    are public by assumption, plus explicit declassify() calls which
 *    are recorded in an audit log.
 *
 * Modes: kOff (hooks return immediately), kRecord (violations are
 * logged and the flow proceeds — the default), kEnforce (a
 * violation is an immediate panic, the same idiom as the live launch
 * protocol monitor). Building with -DSEVF_TAINT=ON makes kEnforce the
 * process default so the whole suite runs enforced.
 *
 * Thread-safety / locking rule: every hook here may be called from the
 * host-parallel launch workers (base/parallel.h). The label map is
 * sharded by 1 MiB address slice, each shard behind its own mutex; an
 * operation splits its range at slice boundaries and takes exactly one
 * shard lock at a time, never nested, so hooks cannot deadlock against
 * each other. The mode knob is an atomic and the audit log has a
 * separate mutex. This rule is no longer prose-only: the shard map and
 * audit log carry SEVF_GUARDED_BY annotations (base/thread_annotations.h)
 * checked by Clang -Wthread-safety and by sevf_lint's guarded-by pass,
 * and the never-nested invariant is the `exclusive Shard::mu ...`
 * entries in tools/lock-order.txt, which sevf_lint's lock-order pass
 * verifies against the whole tree's acquisition graph on every test
 * run. Corollary for callers: a mark/clear racing a query
 * on the SAME bytes is a data race in the caller's protocol, not the
 * map's — parallel launch code labels a buffer before fan-out or after
 * join, never from inside chunk workers touching shared ranges.
 */
#ifndef SEVF_TAINT_TAINT_H_
#define SEVF_TAINT_TAINT_H_

#include <string>
#include <vector>

#include "base/types.h"

namespace sevf::taint {

/**
 * Label set: a join-semilattice under bitwise OR. kNone is bottom
 * (public); any nonzero set is SECRET with provenance tags.
 */
using TaintSet = u8;

inline constexpr TaintSet kNone = 0;
/** Per-guest VM encryption key + tweak key and their key schedules. */
inline constexpr TaintSet kVek = 1u << 0;
/** The PSP's chip signing/endorsement key. */
inline constexpr TaintSet kChipKey = 1u << 1;
/** Attestation transport keys (DH private exponents, channel keys). */
inline constexpr TaintSet kTransportKey = 1u << 2;
/** Guest-owner secrets provisioned after attestation. */
inline constexpr TaintSet kLaunchSecret = 1u << 3;
/** Guest-private plaintext (contents of C-bit pages). */
inline constexpr TaintSet kGuestData = 1u << 4;

/** "vek|launch-secret" style rendering of a label set. */
std::string describeLabels(TaintSet labels);

enum class Mode {
    kOff,     //!< hooks compiled in but inert
    kRecord,  //!< violations recorded, the flow proceeds
    kEnforce, //!< violation == panic (live-monitor idiom)
};

Mode mode();
void setMode(Mode m);

/** Scoped mode override (tests flip between record/enforce). */
class ScopedMode
{
  public:
    explicit ScopedMode(Mode m) : previous_(mode()) { setMode(m); }
    ~ScopedMode() { setMode(previous_); }
    ScopedMode(const ScopedMode &) = delete;
    ScopedMode &operator=(const ScopedMode &) = delete;

  private:
    Mode previous_;
};

/** The host-observable channels the policy guards. */
enum class Sink {
    kHostWrite,       //!< VMM write into guest memory (plaintext path)
    kSharedPageWrite, //!< guest write through a shared (C-bit=0) mapping
    kFwCfg,           //!< fw_cfg staging window item
    kReportField,     //!< public attestation-report field
};

const char *sinkName(Sink sink);

// ---- Label map -----------------------------------------------------------

/** Join @p labels onto the byte range [p, p+len). */
void mark(const void *p, u64 len, TaintSet labels);

/** Remove all labels from [p, p+len). */
void clearRange(const void *p, u64 len);

/** Join of all labels intersecting [p, p+len). */
TaintSet query(const void *p, u64 len);

inline void
mark(ByteSpan bytes, TaintSet labels)
{
    mark(bytes.data(), bytes.size(), labels);
}

inline TaintSet
query(ByteSpan bytes)
{
    return query(bytes.data(), bytes.size());
}

// ---- Declassification ----------------------------------------------------

/**
 * Explicitly declassify [p, p+len): clears its labels and records the
 * event in the audit log. Use at the points the paper's trust argument
 * blesses (e.g. data leaving through an authenticated encrypted
 * channel); anything else is a policy hole a reviewer should see.
 */
void declassify(const void *p, u64 len, std::string_view reason);

/**
 * Record an implicit declassification with no range to clear — the
 * crypto boundaries (ciphertext, MACs, digests of secret input) whose
 * outputs are public by cryptographic assumption.
 */
void noteDeclassified(std::string_view reason);

struct Declassification {
    std::string reason;
    u64 bytes; //!< 0 for noteDeclassified events
};

std::vector<Declassification> declassifications();
u64 declassificationCount();

// ---- Sink guard ----------------------------------------------------------

struct Violation {
    Sink sink;
    TaintSet labels;
    std::string context;
    /** Full rendered diagnostic (what kEnforce panics with). */
    std::string message;
};

/**
 * Guard a sink: returns the labels found on [p, p+len) (kNone when the
 * flow is clean or the mode is kOff). On a labelled flow, kEnforce
 * panics with an actionable diagnostic; kRecord appends a Violation the
 * caller/tests can inspect.
 */
TaintSet guardSink(Sink sink, const void *p, u64 len,
                   std::string_view context);

inline TaintSet
guardSink(Sink sink, ByteSpan bytes, std::string_view context)
{
    return guardSink(sink, bytes.data(), bytes.size(), context);
}

std::vector<Violation> violations();
u64 violationCount();
void clearViolations();

// ---- RAII helpers --------------------------------------------------------

/**
 * Labels a fixed range for the scope's lifetime: the way to label
 * transient key material on the stack (or a heap buffer that dies with
 * the scope) without leaving stale labels behind for the allocator to
 * hand to unrelated public data.
 */
class ScopedTaint
{
  public:
    ScopedTaint(const void *p, u64 len, TaintSet labels) : p_(p), len_(len)
    {
        mark(p_, len_, labels);
    }
    ~ScopedTaint() { clearRange(p_, len_); }
    ScopedTaint(const ScopedTaint &) = delete;
    ScopedTaint &operator=(const ScopedTaint &) = delete;

  private:
    const void *p_;
    u64 len_;
};

/**
 * Deferred-set variant for object members: default-construct alongside
 * the secret member, call set() once the bytes exist, and destruction
 * clears the label with the object.
 */
class ScopedLabel
{
  public:
    ScopedLabel() = default;
    ~ScopedLabel() { reset(); }
    ScopedLabel(const ScopedLabel &) = delete;
    ScopedLabel &operator=(const ScopedLabel &) = delete;

    void
    set(const void *p, u64 len, TaintSet labels)
    {
        reset();
        p_ = p;
        len_ = len;
        mark(p_, len_, labels);
    }

    void
    reset()
    {
        if (p_ != nullptr) {
            clearRange(p_, len_);
            p_ = nullptr;
            len_ = 0;
        }
    }

  private:
    const void *p_ = nullptr;
    u64 len_ = 0;
};

} // namespace sevf::taint

#endif // SEVF_TAINT_TAINT_H_
