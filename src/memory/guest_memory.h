/**
 * @file
 * Guest physical memory with SEV semantics.
 *
 * The backing store holds what the DRAM would hold: plaintext for shared
 * pages, XEX ciphertext for encrypted pages. Host accessors see raw
 * memory (so a host read of an encrypted page yields ciphertext, and a
 * host write to a guest-owned page is blocked by the RMP). Guest
 * accessors take the C-bit, which routes them through the encryption
 * engine exactly like the hardware's address-translation path (§2.4).
 */
#ifndef SEVF_MEMORY_GUEST_MEMORY_H_
#define SEVF_MEMORY_GUEST_MEMORY_H_

#include <memory>
#include <optional>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "crypto/xex.h"
#include "memory/dram.h"
#include "memory/rmp.h"
#include "memory/sev_mode.h"
#include "taint/taint.h"

namespace sevf::memory {

/** Half-open guest-physical range [begin, end). */
struct GpaRange {
    Gpa begin = 0;
    Gpa end = 0;
};

/**
 * One run of pages captured from a booted guest. @p bytes holds
 * PLAINTEXT in both cases: ciphertext is per-VM (fresh VEK plus
 * SPA-dependent XEX tweak), so an encrypted segment is re-encrypted
 * with the target VM's key when a copy-on-write view materializes.
 */
struct SnapshotSegment {
    Gpa gpa = 0;
    bool encrypted = false;
    std::shared_ptr<const ByteVec> bytes;
};

/**
 * Post-launch memory image of a guest, suitable for instantiating into
 * a fresh VM as copy-on-write views (the template cache's payload).
 * Pages carrying labels beyond taint::kGuestData (provisioned secrets)
 * are never captured — captureSnapshot refuses instead.
 */
struct MemorySnapshot {
    u64 memory_size = 0;
    std::vector<SnapshotSegment> segments;
    /** Pages the RMP showed assigned+validated at capture time. */
    std::vector<GpaRange> validated;

    u64 byteSize() const;
};

/**
 * One VM's guest-physical address space. GPA 0 maps to SPA spa_base;
 * distinct VMs get distinct spa_base values so ciphertexts are unique
 * across VMs even for identical guest contents.
 */
class GuestMemory
{
  public:
    /**
     * @param size guest memory size in bytes (page aligned)
     * @param spa_base system-physical base of this VM's allocation
     * @param asid the guest's address-space id (0 = non-SEV guest)
     * @param mode SEV generation; kNone is forced when asid == 0
     */
    GuestMemory(u64 size, Spa spa_base, u32 asid,
                SevMode mode = SevMode::kSevSnp);

    GuestMemory(const GuestMemory &) = delete;
    GuestMemory &operator=(const GuestMemory &) = delete;

    u64 size() const { return bytes_.size(); }
    u32 asid() const { return asid_; }
    Spa spaBase() const { return spa_base_; }
    Spa spaOf(Gpa gpa) const { return spa_base_ + gpa; }
    bool sevEnabled() const { return engine_ != nullptr; }
    SevMode sevMode() const { return mode_; }
    /** RMP integrity checks apply (SEV-SNP only, §2.2). */
    bool integrityEnforced() const
    {
        return sevEnabled() && hasIntegrity(mode_);
    }

    /**
     * Attach the guest's memory-encryption context (done by the PSP at
     * LAUNCH_START via Psp::activate). Until attached, the VM behaves
     * like a non-SEV guest.
     */
    void attachEncryption(std::unique_ptr<crypto::XexCipher> engine);

    Rmp &rmp() { return rmp_; }
    const Rmp &rmp() const { return rmp_; }

    /**
     * Back this guest's DRAM with 4 KiB pages instead of 2 MiB ones
     * (DramBuffer::useSmallPages): a VM restored from a template opts
     * out before its first write, because it touches few pages.
     */
    void useSmallPages() { dram_.useSmallPages(); }

    // ---- Host-side accessors (the VMM / a would-be attacker) ----

    /**
     * Host write of raw bytes. For a non-SEV guest this is the ordinary
     * VMM load path. For an SEV guest it succeeds only on shared
     * (unassigned) pages - the RMP blocks writes to guest-owned pages.
     */
    Status hostWrite(Gpa gpa, ByteSpan data);

    /** Host read of raw memory: ciphertext for encrypted pages. */
    Result<ByteVec> hostRead(Gpa gpa, u64 len) const;

    /**
     * Host write that BYPASSES the RMP check, corrupting DRAM contents
     * directly. Exists so tests/examples can model a physical attacker;
     * the guest still detects the tamper (hash mismatch or garbage
     * plaintext) - it just isn't blocked.
     */
    void hostWriteUnchecked(Gpa gpa, ByteSpan data);

    // ---- Guest-side accessors (through the C-bit) ----

    /**
     * Guest write. With @p c_bit set on an SEV guest, data is encrypted
     * with the address tweak on its way to memory and the RMP must show
     * the page assigned+validated (else #VC). Encryption reads the
     * caller's bytes and writes DRAM directly, so DRAM never holds the
     * plaintext, not even for a partial 16-byte line.
     */
    Status guestWrite(Gpa gpa, ByteSpan data, bool c_bit);

    /** Guest read; decrypts when @p c_bit is set. Same RMP checks. */
    Result<ByteVec> guestRead(Gpa gpa, u64 len, bool c_bit) const;

    // ---- PSP-side (LAUNCH_UPDATE_DATA) ----

    /**
     * Pre-encrypt @p len bytes at @p gpa in place: the PSP reads the
     * plaintext the VMM staged there, encrypts it with the guest key,
     * and marks the pages assigned+validated in the RMP. The region is
     * page-aligned internally (whole pages are converted).
     */
    Status pspEncryptInPlace(Gpa gpa, u64 len);

    /**
     * Raw view for the PSP/tests. Materializes every outstanding
     * copy-on-write view first so scanners (e.g. the cross-VM dedup
     * measurement) see real DRAM contents, never an unmaterialized
     * placeholder.
     */
    ByteSpan raw() const
    {
        materializeAll();
        return bytes_;
    }

    // ---- Copy-on-write template instantiation (src/cache) ----

    /**
     * Map @p data as one copy-on-write view of the pages starting at the
     * page-aligned @p gpa: no bytes are copied until a page is first
     * touched by any accessor. With @p encrypted set, materialization
     * additionally encrypts the page with this VM's key at its SPA
     * (requires an attached encryption context by first touch), which
     * is how cached plaintext becomes per-VM ciphertext. A view that
     * leaves guest memory, starts mid-page or overlaps a page still
     * pending on another view fails with kInvalidArgument and maps
     * nothing. Bookkeeping only — RMP state and taint labels are the
     * caller's job (instantiateSnapshot does both).
     */
    Status mapCowPages(Gpa gpa, std::shared_ptr<const ByteVec> data,
                       bool encrypted);

    /** Outstanding (not yet materialized) copy-on-write pages. */
    u64 cowPageCount() const { return cow_mapped_ - cow_materialized_; }

    /**
     * Copy-on-write pages materialized so far. A plain counter, not a
     * metric: materialization runs on TCB-reachable read paths, and the
     * obs layer must stay out of the verifier closure — non-TCB callers
     * (core/strategies.cc) sample this into the
     * sevf_cow_pages_materialized_total counter instead.
     */
    u64 cowMaterializedCount() const { return cow_materialized_; }

    /**
     * Capture the current memory image for the template cache. Pages
     * inside @p exclude are skipped (per-launch state: the plan regions
     * the warm path re-stages, the VMSAs). Fails with kUnsupported if
     * any capturable page carries labels beyond taint::kGuestData —
     * provisioned secrets must never enter a cross-launch cache.
     */
    Result<MemorySnapshot> captureSnapshot(
        const std::vector<GpaRange> &exclude) const;

    /**
     * Instantiate a captured image into this (freshly launched) VM:
     * maps each segment as one copy-on-write view, labels encrypted
     * segments kGuestData, and replays each captured validated range
     * into the RMP with one pspAssignValidated call. Requires an
     * attached encryption context and matching memory size. The whole
     * snapshot is checked first (a template file is host-supplied): a
     * segment that overlaps another or a pending view, starts mid-page
     * or leaves guest memory, or a validated range that is inverted,
     * unaligned or past the end, fails with kInvalidArgument before any
     * view or RMP entry changes.
     */
    Status instantiateSnapshot(const MemorySnapshot &snap);

    // ---- Secret-flow labels (sevf::taint) ----

    /**
     * Taint labels of the page containing @p gpa. Pages converted to
     * guest-owned state (pspEncryptInPlace, C-bit writes) carry at
     * least kGuestData; provisioned secrets add their tags. The shadow
     * is the durable propagation channel: plaintext buffers returned by
     * guestRead inherit any secret tags of the pages they came from.
     */
    taint::TaintSet pageLabel(Gpa gpa) const;

    /** Join @p labels onto every page overlapping [gpa, gpa+len). */
    void joinPageLabels(Gpa gpa, u64 len, taint::TaintSet labels);

  private:
    /**
     * One copy-on-write view (a mapCowPages call): guest pages
     * [first_page, first_page + pages) read from *data, the last one
     * zero-padded when data ends mid-page.
     */
    struct CowView {
        u64 first_page = 0;
        u64 pages = 0;
        std::shared_ptr<const ByteVec> data;
        bool encrypted = false;
    };

    Status checkRange(Gpa gpa, u64 len) const;
    /** mapCowPages' checks: in range, page aligned, no pending page. */
    Status checkCowView(Gpa gpa, u64 len) const;
    /** instantiateSnapshot's checks, made before anything changes. */
    Status checkSnapshot(const MemorySnapshot &snap) const;
    /** RMP guest-access check for every page the range touches. */
    Status checkGuestRange(Gpa gpa, u64 len) const;
    /** Copy (and for encrypted views, encrypt) one CoW page into DRAM. */
    void materializePage(u64 page) const;
    /** Materialize every CoW page overlapping [gpa, gpa+len). */
    void materializeRange(Gpa gpa, u64 len) const;
    void materializeAll() const;

    /**
     * mutable: copy-on-write materialization is a cache fill, not a
     * semantic mutation — const readers (hostRead, guestRead, raw) see
     * the same bytes either way. DramBuffer so a fresh VM's zero pages
     * are lazily faulted instead of eagerly memset (memory/dram.h);
     * bytes_ caches its span so the TCB-reachable access paths touch
     * no DramBuffer accessor (memory/dram is banned from the verifier
     * closure: tools/tcb-budget.txt, tools/tcb-baseline.json).
     */
    mutable DramBuffer dram_;
    mutable MutByteSpan bytes_;
    mutable std::vector<CowView> cow_views_;
    /**
     * Per guest page: 1 + the cow_views_ index of the view the page is
     * still pending on, or 0. Empty until the first mapCowPages, so a
     * cold VM pays nothing; mapCowPages refuses a view past u32.
     */
    mutable std::vector<u32> cow_index_;
    u64 cow_mapped_ = 0;
    mutable u64 cow_materialized_ = 0;
    Spa spa_base_;
    u32 asid_;
    SevMode mode_;
    Rmp rmp_;
    std::unique_ptr<crypto::XexCipher> engine_;
    /** Per-page taint shadow (see pageLabel()). */
    std::vector<taint::TaintSet> page_labels_;
};

} // namespace sevf::memory

#endif // SEVF_MEMORY_GUEST_MEMORY_H_
