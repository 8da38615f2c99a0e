/**
 * @file
 * SEV-SNP Reverse Map Table (RMP) model.
 *
 * The RMP tracks, per system-physical page: whether it is assigned to a
 * guest, which ASID owns it, which guest-physical address it backs, and
 * whether the guest has validated it with pvalidate (§2.2). It enforces:
 *
 *  - host writes to assigned pages are blocked;
 *  - pvalidate is only legal from the owning guest and is the only way
 *    to set the validated bit;
 *  - any hypervisor remapping (RMPUPDATE) clears the validated bit, so
 *    the guest's next access faults with #VC, exposing tampering.
 */
#ifndef SEVF_MEMORY_RMP_H_
#define SEVF_MEMORY_RMP_H_

#include <vector>

#include "base/status.h"
#include "base/types.h"

namespace sevf::memory {

/** One RMP entry (4 KiB page granularity). */
struct RmpEntry {
    bool assigned = false;  //!< owned by a guest (vs hypervisor)
    u32 asid = 0;           //!< owning guest's address space id
    Gpa gpa = 0;            //!< guest-physical address this page backs
    bool validated = false; //!< guest executed pvalidate
    bool immutable = false; //!< PSP-owned (firmware) page
};

/**
 * The reverse map table covering one span of system-physical memory.
 * Indexed by SPA; the owning platform hands each guest's pages a
 * distinct SPA range so XEX ciphertexts are address-unique across VMs.
 */
class Rmp
{
  public:
    /**
     * @param spa_base first system-physical address covered
     * @param num_pages number of 4 KiB pages covered
     */
    Rmp(Spa spa_base, u64 num_pages);

    /**
     * Hypervisor/PSP operation: (re)assign a page. Always clears the
     * validated bit - exactly the hardware behaviour that lets a guest
     * detect remapping attacks.
     */
    Status rmpUpdate(Spa spa, u32 asid, Gpa gpa, bool assigned);

    /** Mark a page PSP-immutable (launch-measured firmware pages). */
    Status setImmutable(Spa spa);

    /**
     * PSP operation during LAUNCH_UPDATE_DATA (and a template restore):
     * the @p pages pre-encrypted pages from @p spa enter the guest
     * already assigned and validated, backing @p gpa onward. The whole
     * range is checked first: one that is unaligned or runs past the
     * RMP fails with kInvalidArgument before any entry changes.
     */
    Status pspAssignValidated(Spa spa, u32 asid, Gpa gpa, u64 pages);

    /**
     * Guest pvalidate. Fails with kAccessDenied (#VC at the access site)
     * unless the page is assigned to @p asid at @p gpa.
     *
     * @param validate true to set, false to clear (page conversion)
     */
    Status pvalidate(Spa spa, u32 asid, Gpa gpa, bool validate);

    /**
     * Check a guest access (read or write through a private mapping).
     * OK iff the page is assigned to @p asid, backs @p gpa, and is
     * validated; anything else is the #VC case.
     */
    Status checkGuestAccess(Spa spa, u32 asid, Gpa gpa) const;

    /** Check a host write. Fails on assigned or immutable pages. */
    Status checkHostWrite(Spa spa) const;

    /** Entry under @p spa (must be in range). */
    const RmpEntry &entryAt(Spa spa) const;

    /** Number of currently validated pages. */
    u64 validatedCount() const;

    Spa spaBase() const { return spa_base_; }

  private:
    Result<std::size_t> indexFor(Spa spa) const;

    Spa spa_base_;
    std::vector<RmpEntry> entries_;
};

} // namespace sevf::memory

#endif // SEVF_MEMORY_RMP_H_
