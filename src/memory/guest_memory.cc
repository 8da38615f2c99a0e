#include "memory/guest_memory.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "base/logging.h"
#include "base/parallel.h"
#include "obs/families.h"
#include "obs/span.h"

namespace sevf::memory {

namespace {

/** AES/XEX line size: the encryption engine's granularity. */
constexpr u64 kLine = 16;

bool
pageInRanges(Gpa page, const std::vector<GpaRange> &ranges)
{
    for (const GpaRange &r : ranges) {
        if (page >= alignDown(r.begin, kPageSize) &&
            page < alignUp(r.end, kPageSize)) {
            return true;
        }
    }
    return false;
}

} // namespace

u64
MemorySnapshot::byteSize() const
{
    u64 total = sizeof(MemorySnapshot);
    for (const SnapshotSegment &seg : segments) {
        total += sizeof(SnapshotSegment);
        total += seg.bytes ? seg.bytes->size() : 0;
    }
    total += validated.size() * sizeof(GpaRange);
    return total;
}

GuestMemory::GuestMemory(u64 size, Spa spa_base, u32 asid, SevMode mode)
    : dram_(size),
      bytes_(dram_.begin(), dram_.end()),
      spa_base_(spa_base),
      asid_(asid),
      mode_(asid == 0 ? SevMode::kNone : mode),
      rmp_(spa_base, pagesFor(size)),
      page_labels_(pagesFor(size), taint::kNone)
{
    SEVF_CHECK(size % kPageSize == 0);
    SEVF_CHECK(spa_base % kPageSize == 0);
}

taint::TaintSet
GuestMemory::pageLabel(Gpa gpa) const
{
    u64 page = gpa / kPageSize;
    return page < page_labels_.size() ? page_labels_[page] : taint::kNone;
}

void
GuestMemory::joinPageLabels(Gpa gpa, u64 len, taint::TaintSet labels)
{
    if (len == 0 || labels == taint::kNone) {
        return;
    }
    u64 first = gpa / kPageSize;
    u64 last = (gpa + len - 1) / kPageSize;
    for (u64 page = first; page <= last && page < page_labels_.size();
         ++page) {
        page_labels_[page] |= labels;
    }
}

void
GuestMemory::attachEncryption(std::unique_ptr<crypto::XexCipher> engine)
{
    SEVF_CHECK(engine_ == nullptr);
    engine_ = std::move(engine);
}

void
GuestMemory::materializePage(u64 page) const
{
    u32 view = cow_index_[page];
    if (view == 0) {
        return;
    }
    cow_index_[page] = 0;
    const CowView &v = cow_views_[view - 1];
    u64 off = (page - v.first_page) * kPageSize;
    u64 take = std::min<u64>(kPageSize, v.data->size() - off);
    u8 *dst = bytes_.data() + page * kPageSize;
    std::memcpy(dst, v.data->data() + off, take);
    std::memset(dst + take, 0, kPageSize - take);
    if (v.encrypted) {
        // Per-VM ciphertext: the cached plaintext meets this VM's key
        // and SPA tweak only here, at first touch.
        SEVF_CHECK(engine_ != nullptr);
        engine_->encrypt(ByteSpan(dst, kPageSize),
                         MutByteSpan(dst, kPageSize),
                         spa_base_ + page * kPageSize);
    }
    // Plain counter, not an obs metric (see cowMaterializedCount()).
    ++cow_materialized_;
}

void
GuestMemory::materializeRange(Gpa gpa, u64 len) const
{
    if (cow_index_.empty() || len == 0) {
        return;
    }
    u64 first = gpa / kPageSize;
    u64 last = (gpa + len - 1) / kPageSize;
    for (u64 page = first; page <= last; ++page) {
        materializePage(page);
    }
}

void
GuestMemory::materializeAll() const
{
    for (const CowView &v : cow_views_) {
        materializeRange(v.first_page * kPageSize, v.pages * kPageSize);
    }
    // Every page is plain DRAM now: drop the segment references.
    cow_views_ = std::vector<CowView>();
    cow_index_ = std::vector<u32>();
}

Status
GuestMemory::checkCowView(Gpa gpa, u64 len) const
{
    SEVF_RETURN_IF_ERROR(checkRange(gpa, len));
    if (gpa % kPageSize != 0) {
        return errInvalidArgument("CoW mapping not page aligned");
    }
    if (!cow_index_.empty()) {
        auto first = cow_index_.begin() + gpa / kPageSize;
        auto last = first + pagesFor(len);
        if (std::any_of(first, last, [](u32 view) { return view != 0; })) {
            return errInvalidArgument("CoW mapping overlaps a pending view");
        }
    }
    return Status::ok();
}

Status
GuestMemory::mapCowPages(Gpa gpa, std::shared_ptr<const ByteVec> data,
                         bool encrypted)
{
    if (!data || data->empty()) {
        return Status::ok();
    }
    SEVF_RETURN_IF_ERROR(checkCowView(gpa, data->size()));
    if (cow_views_.size() >= std::numeric_limits<u32>::max()) {
        return errResourceExhausted("CoW view numbers exhausted");
    }
    u64 first = gpa / kPageSize;
    u64 pages = pagesFor(data->size());
    if (cow_index_.empty()) {
        cow_index_.assign(pagesFor(bytes_.size()), 0);
    }
    cow_views_.push_back(CowView{first, pages, std::move(data), encrypted});
    std::fill_n(cow_index_.begin() + first, pages,
                static_cast<u32>(cow_views_.size()));
    cow_mapped_ += pages;
    // Mapping is counted here. Materialization is counted once per
    // launch by core/strategies.cc instead, because it runs on
    // TCB-reachable read paths that must make no obs calls
    // (tools/tcb-baseline.json lists them, with the line of each, so an
    // edit above them changes the baseline).
    obs::kCowPagesMapped.add(pages);
    return Status::ok();
}

Result<MemorySnapshot>
GuestMemory::captureSnapshot(const std::vector<GpaRange> &exclude) const
{
    SEVF_SPAN("guest_memory.capture_snapshot", "bytes",
              static_cast<u64>(bytes_.size()));
    materializeAll();
    MemorySnapshot snap;
    snap.memory_size = bytes_.size();
    u64 pages = pagesFor(bytes_.size());

    // Classify every page before copying anything so a refusal is
    // all-or-nothing.
    enum class PageClass : u8 { kSkip, kShared, kEncrypted };
    std::vector<PageClass> cls(pages, PageClass::kSkip);
    for (u64 p = 0; p < pages; ++p) {
        Gpa gpa = p * kPageSize;
        if (pageInRanges(gpa, exclude)) {
            continue;
        }
        taint::TaintSet label = page_labels_[p];
        if ((label & ~taint::kGuestData) != taint::kNone) {
            // Provisioned secrets (or anything beyond measured guest
            // content) must never enter a cross-launch cache.
            return errUnsupported(
                "snapshot page carries secret labels; refusing to cache");
        }
        if ((label & taint::kGuestData) != taint::kNone) {
            cls[p] = PageClass::kEncrypted;
            continue;
        }
        // Fresh guest memory is zero-filled, so all-zero shared pages
        // reproduce themselves for free. memcmp against a zero page
        // vectorizes; a byte loop here dominated capture time.
        static const u8 kZeroPage[kPageSize] = {};
        bool zero =
            std::memcmp(bytes_.data() + gpa, kZeroPage, kPageSize) == 0;
        cls[p] = zero ? PageClass::kSkip : PageClass::kShared;
    }

    for (u64 p = 0; p < pages;) {
        if (cls[p] == PageClass::kSkip) {
            ++p;
            continue;
        }
        u64 q = p;
        while (q < pages && cls[q] == cls[p]) {
            ++q;
        }
        bool enc = cls[p] == PageClass::kEncrypted;
        auto buf = std::make_shared<ByteVec>();
        if (enc) {
            // Store plaintext: ciphertext is per-VM (VEK + SPA tweak),
            // so the template re-encrypts on materialization instead.
            SEVF_ASSIGN_OR_RETURN(
                *buf, guestRead(p * kPageSize, (q - p) * kPageSize, true));
        } else {
            buf->assign(bytes_.begin() + p * kPageSize,
                        bytes_.begin() + q * kPageSize);
        }
        snap.segments.push_back(
            SnapshotSegment{p * kPageSize, enc, std::move(buf)});
        p = q;
    }

    if (integrityEnforced()) {
        u64 run_start = 0;
        bool in_run = false;
        for (u64 p = 0; p <= pages; ++p) {
            bool v = false;
            if (p < pages) {
                Gpa gpa = p * kPageSize;
                const RmpEntry &e = rmp_.entryAt(spaOf(gpa));
                v = e.validated && e.assigned && e.asid == asid_ &&
                    !pageInRanges(gpa, exclude);
            }
            if (v && !in_run) {
                run_start = p;
                in_run = true;
            } else if (!v && in_run) {
                snap.validated.push_back(
                    GpaRange{run_start * kPageSize, p * kPageSize});
                in_run = false;
            }
        }
    }
    return snap;
}

Status
GuestMemory::checkSnapshot(const MemorySnapshot &snap) const
{
    if (snap.memory_size != bytes_.size()) {
        return errInvalidArgument("snapshot memory size mismatch");
    }
    std::vector<GpaRange> spans;
    for (const SnapshotSegment &seg : snap.segments) {
        if (!seg.bytes || seg.bytes->empty()) {
            continue; // maps nothing (mapCowPages)
        }
        if (seg.encrypted && !sevEnabled()) {
            return errInvalidState(
                "encrypted snapshot segment without an attached VEK");
        }
        SEVF_RETURN_IF_ERROR(checkCowView(seg.gpa, seg.bytes->size()));
        spans.push_back(GpaRange{
            seg.gpa, seg.gpa + alignUp(seg.bytes->size(), kPageSize)});
    }
    std::sort(spans.begin(), spans.end(),
              [](const GpaRange &a, const GpaRange &b) {
                  return a.begin < b.begin;
              });
    for (std::size_t i = 1; i < spans.size(); ++i) {
        if (spans[i].begin < spans[i - 1].end) {
            return errInvalidArgument("snapshot segments overlap");
        }
    }
    for (const GpaRange &r : snap.validated) {
        if (r.end < r.begin || r.begin % kPageSize != 0 ||
            r.end % kPageSize != 0 || r.end > bytes_.size()) {
            return errInvalidArgument(
                "snapshot validated range inverted, unaligned or past "
                "the RMP");
        }
    }
    return Status::ok();
}

Status
GuestMemory::instantiateSnapshot(const MemorySnapshot &snap)
{
    SEVF_SPAN("guest_memory.instantiate_snapshot", "bytes", snap.byteSize());
    SEVF_RETURN_IF_ERROR(checkSnapshot(snap));
    for (const SnapshotSegment &seg : snap.segments) {
        SEVF_RETURN_IF_ERROR(mapCowPages(seg.gpa, seg.bytes, seg.encrypted));
        if (seg.encrypted && seg.bytes) {
            joinPageLabels(seg.gpa, seg.bytes->size(), taint::kGuestData);
        }
    }
    if (integrityEnforced()) {
        for (const GpaRange &r : snap.validated) {
            SEVF_RETURN_IF_ERROR(rmp_.pspAssignValidated(
                spaOf(r.begin), asid_, r.begin,
                (r.end - r.begin) / kPageSize));
        }
    }
    return Status::ok();
}

Status
GuestMemory::checkRange(Gpa gpa, u64 len) const
{
    if (gpa > bytes_.size() || len > bytes_.size() - gpa) {
        return errInvalidArgument("access outside guest memory");
    }
    return Status::ok();
}

Status
GuestMemory::checkGuestRange(Gpa gpa, u64 len) const
{
    if (!integrityEnforced()) {
        // Pre-SNP generations have no RMP: accesses go straight to the
        // encryption engine.
        return Status::ok();
    }
    Gpa first = alignDown(gpa, kPageSize);
    Gpa last = len == 0 ? first : alignDown(gpa + len - 1, kPageSize);
    for (Gpa page = first; page <= last; page += kPageSize) {
        SEVF_RETURN_IF_ERROR(rmp_.checkGuestAccess(spaOf(page), asid_, page));
    }
    return Status::ok();
}

Status
GuestMemory::hostWrite(Gpa gpa, ByteSpan data)
{
    SEVF_SPAN("guest_memory.host_write", "bytes",
              static_cast<u64>(data.size()));

    // Staging volume, read by perfbench's memory.host_write_mb row.
    // Counted before the range check, so the counters describe what the
    // host asked to stage, rejected writes included. hostWrite is the
    // host's side of guest memory and outside the TCB closure, so it
    // may call obs; guestWrite and guestRead below are inside it
    // (tools/tcb-baseline.json) and make no obs calls.
    obs::kHostWriteBytes.add(data.size());
    obs::kHostWriteCalls.add();

    SEVF_RETURN_IF_ERROR(checkRange(gpa, data.size()));
    // The host staging path writes plaintext the host can also read
    // back: labelled bytes arriving here are a confidentiality leak.
    taint::guardSink(taint::Sink::kHostWrite, data,
                     "GuestMemory::hostWrite staging plaintext");
    if (integrityEnforced() && !data.empty()) {
        Gpa first = alignDown(gpa, kPageSize);
        Gpa last = alignDown(gpa + data.size() - 1, kPageSize);
        for (Gpa page = first; page <= last; page += kPageSize) {
            SEVF_RETURN_IF_ERROR(rmp_.checkHostWrite(spaOf(page)));
        }
    }
    // Bulk image staging: chunk the copy across host threads on page
    // boundaries. Disjoint destination ranges, so the result is the
    // same at any thread count.
    if (!data.empty()) {
        materializeRange(gpa, data.size());
        const u64 len = data.size();
        base::parallelFor(0, pagesFor(len), 64, [&](u64 lo, u64 hi) {
            u64 off_lo = lo * kPageSize;
            u64 off_hi = std::min<u64>(len, hi * kPageSize);
            std::memcpy(bytes_.data() + gpa + off_lo, data.data() + off_lo,
                        off_hi - off_lo);
        });
    }
    return Status::ok();
}

Result<ByteVec>
GuestMemory::hostRead(Gpa gpa, u64 len) const
{
    SEVF_RETURN_IF_ERROR(checkRange(gpa, len));
    materializeRange(gpa, len);
    return ByteVec(bytes_.begin() + gpa, bytes_.begin() + gpa + len);
}

void
GuestMemory::hostWriteUnchecked(Gpa gpa, ByteSpan data)
{
    // Deliberately NOT a taint sink: this models a physical attacker
    // corrupting DRAM, not our software leaking secrets.
    SEVF_CHECK(gpa + data.size() <= bytes_.size());
    materializeRange(gpa, data.size());
    std::copy(data.begin(), data.end(), bytes_.begin() + gpa);
}

Status
GuestMemory::guestWrite(Gpa gpa, ByteSpan data, bool c_bit)
{
    SEVF_RETURN_IF_ERROR(checkRange(gpa, data.size()));
    if (data.empty()) {
        return Status::ok();
    }
    materializeRange(gpa, data.size());
    if (!sevEnabled() || !c_bit) {
        // Shared (plaintext) access path. No RMP validation required for
        // shared pages, but writing a guest-owned page through a shared
        // mapping would produce garbage; we allow it like hardware does.
        // Secret bytes leaving the guest through a shared mapping is
        // exactly the leak SEV exists to prevent — guard it.
        taint::guardSink(taint::Sink::kSharedPageWrite, data,
                         "GuestMemory::guestWrite with C-bit clear");
        std::copy(data.begin(), data.end(), bytes_.begin() + gpa);
        return Status::ok();
    }

    SEVF_RETURN_IF_ERROR(checkGuestRange(gpa, data.size()));
    // A C-bit write makes the pages guest-private: propagate the data's
    // labels (if any) into the page shadow before the bytes become
    // indistinguishable ciphertext.
    joinPageLabels(gpa, data.size(), taint::query(data) | taint::kGuestData);

    // Whole 16-byte lines are encrypted straight from the caller's bytes
    // into DRAM. A partial line at either end is read-modify-write
    // through a one-line stack buffer, so DRAM never holds C-bit
    // plaintext.
    Gpa end = gpa + data.size();
    Gpa body_lo = std::min(alignUp(gpa, kLine), end);
    Gpa body_hi = std::max(alignDown(end, kLine), body_lo);
    if (body_hi > body_lo) {
        engine_->encrypt(
            data.subspan(body_lo - gpa, body_hi - body_lo),
            MutByteSpan(bytes_.data() + body_lo, body_hi - body_lo),
            spa_base_ + body_lo);
    }
    const std::pair<Gpa, Gpa> partial[] = {{gpa, body_lo}, {body_hi, end}};
    for (const auto &[lo, hi] : partial) {
        if (lo == hi) {
            continue;
        }
        Gpa line = alignDown(lo, kLine);
        MutByteSpan cell(bytes_.data() + line, kLine);
        u8 buf[kLine];
        engine_->decrypt(cell, MutByteSpan(buf, kLine), spa_base_ + line);
        std::memcpy(buf + (lo - line), data.data() + (lo - gpa), hi - lo);
        engine_->encrypt(ByteSpan(buf, kLine), cell, spa_base_ + line);
    }
    return Status::ok();
}

Result<ByteVec>
GuestMemory::guestRead(Gpa gpa, u64 len, bool c_bit) const
{
    SEVF_RETURN_IF_ERROR(checkRange(gpa, len));
    materializeRange(gpa, len);
    if (!sevEnabled() || !c_bit) {
        return ByteVec(bytes_.begin() + gpa, bytes_.begin() + gpa + len);
    }
    if (len == 0) {
        return ByteVec{};
    }
    SEVF_RETURN_IF_ERROR(checkGuestRange(gpa, len));

    // Decrypt the covering lines straight from DRAM into the returned
    // vector, then trim it to [gpa, gpa+len): the trim moves bytes only
    // for a read that starts mid-line.
    Gpa line_start = alignDown(gpa, kLine);
    ByteVec out(alignUp(gpa + len, kLine) - line_start);
    engine_->decrypt(ByteSpan(bytes_.data() + line_start, out.size()), out,
                     spa_base_ + line_start);
    out.erase(out.begin(), out.begin() + (gpa - line_start));
    out.resize(len);
    // Decrypted plaintext inherits the secret tags of its pages. Plain
    // kGuestData (measured kernel/initrd content) stays unmarked so the
    // hot verifier read path does not scatter labels over short-lived
    // buffers; explicitly provisioned secrets do get carried.
    taint::TaintSet labels = taint::kNone;
    for (Gpa page = alignDown(gpa, kPageSize);
         page <= alignDown(gpa + len - 1, kPageSize); page += kPageSize) {
        labels |= pageLabel(page);
    }
    if ((labels & ~taint::kGuestData) != taint::kNone) {
        taint::mark(out.data(), out.size(), labels);
    }
    return out;
}

Status
GuestMemory::pspEncryptInPlace(Gpa gpa, u64 len)
{
    SEVF_SPAN("guest_memory.psp_encrypt_in_place", "bytes", len);
    if (!sevEnabled()) {
        return errInvalidState("pre-encryption without an attached VEK");
    }
    SEVF_RETURN_IF_ERROR(checkRange(gpa, len));
    if (gpa % kPageSize != 0) {
        return errInvalidArgument("LAUNCH_UPDATE_DATA region not page aligned");
    }

    u64 whole = alignUp(len, kPageSize);
    if (gpa + whole > bytes_.size()) {
        return errInvalidArgument("LAUNCH_UPDATE_DATA region past end");
    }
    materializeRange(gpa, whole);
    // Encrypt whole pages (the PSP works at page granularity). The pages
    // become guest-owned: label them, and let the engine clear any
    // byte-range labels (the DRAM now holds public ciphertext).
    joinPageLabels(gpa, whole, taint::kGuestData);
    MutByteSpan region(bytes_.data() + gpa, whole);
    engine_->encrypt(region, region, spa_base_ + gpa);
    if (integrityEnforced()) {
        SEVF_RETURN_IF_ERROR(rmp_.pspAssignValidated(spaOf(gpa), asid_, gpa,
                                                     whole / kPageSize));
    }
    return Status::ok();
}

} // namespace sevf::memory
