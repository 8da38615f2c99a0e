#include "memory/rmp.h"

#include "base/logging.h"

namespace sevf::memory {

Rmp::Rmp(Spa spa_base, u64 num_pages)
    : spa_base_(spa_base), entries_(num_pages)
{
    SEVF_CHECK(spa_base % kPageSize == 0);
}

Result<std::size_t>
Rmp::indexFor(Spa spa) const
{
    if (spa < spa_base_) {
        return errInvalidArgument("spa below RMP coverage");
    }
    u64 idx = (spa - spa_base_) / kPageSize;
    if (idx >= entries_.size()) {
        return errInvalidArgument("spa beyond RMP coverage");
    }
    return static_cast<std::size_t>(idx);
}

Status
Rmp::rmpUpdate(Spa spa, u32 asid, Gpa gpa, bool assigned)
{
    Result<std::size_t> idx = indexFor(spa);
    if (!idx.isOk()) {
        return idx.status();
    }
    RmpEntry &e = entries_[*idx];
    if (e.immutable) {
        return errAccessDenied("RMPUPDATE on immutable page");
    }
    e.assigned = assigned;
    e.asid = assigned ? asid : 0;
    e.gpa = assigned ? gpa : 0;
    // Any remapping invalidates: the guest must re-pvalidate, and a
    // malicious remap is caught as #VC at the next guest access.
    e.validated = false;
    return Status::ok();
}

Status
Rmp::setImmutable(Spa spa)
{
    Result<std::size_t> idx = indexFor(spa);
    if (!idx.isOk()) {
        return idx.status();
    }
    entries_[*idx].immutable = true;
    return Status::ok();
}

Status
Rmp::pspAssignValidated(Spa spa, u32 asid, Gpa gpa, u64 pages)
{
    if (spa % kPageSize != 0 || gpa % kPageSize != 0) {
        return errInvalidArgument("RMP range not page aligned");
    }
    // A spa below the base wraps to an index past the end.
    u64 first = (spa - spa_base_) / kPageSize;
    if (first > entries_.size() || pages > entries_.size() - first) {
        return errInvalidArgument("RMP range outside coverage");
    }
    for (u64 i = 0; i < pages; ++i) {
        RmpEntry &e = entries_[first + i];
        e.assigned = true;
        e.asid = asid;
        e.gpa = gpa + i * kPageSize;
        e.validated = true;
    }
    return Status::ok();
}

Status
Rmp::pvalidate(Spa spa, u32 asid, Gpa gpa, bool validate)
{
    Result<std::size_t> idx = indexFor(spa);
    if (!idx.isOk()) {
        return idx.status();
    }
    RmpEntry &e = entries_[*idx];
    if (!e.assigned || e.asid != asid) {
        return errAccessDenied("pvalidate: page not assigned to this guest");
    }
    if (e.gpa != gpa) {
        return errAccessDenied("pvalidate: gpa mismatch (remapped page)");
    }
    e.validated = validate;
    return Status::ok();
}

Status
Rmp::checkGuestAccess(Spa spa, u32 asid, Gpa gpa) const
{
    Result<std::size_t> idx = indexFor(spa);
    if (!idx.isOk()) {
        return idx.status();
    }
    const RmpEntry &e = entries_[*idx];
    if (!e.assigned || e.asid != asid || e.gpa != gpa) {
        return errAccessDenied("#VC: RMP ownership check failed");
    }
    if (!e.validated) {
        return errAccessDenied("#VC: access to unvalidated page");
    }
    return Status::ok();
}

Status
Rmp::checkHostWrite(Spa spa) const
{
    Result<std::size_t> idx = indexFor(spa);
    if (!idx.isOk()) {
        return idx.status();
    }
    const RmpEntry &e = entries_[*idx];
    if (e.assigned || e.immutable) {
        return errAccessDenied("RMP: host write to guest-owned page");
    }
    return Status::ok();
}

const RmpEntry &
Rmp::entryAt(Spa spa) const
{
    Result<std::size_t> idx = indexFor(spa);
    if (!idx.isOk()) {
        panic("Rmp::entryAt out of range: ", idx.status().toString());
    }
    return entries_[*idx];
}

u64
Rmp::validatedCount() const
{
    u64 n = 0;
    for (const RmpEntry &e : entries_) {
        n += e.validated ? 1 : 0;
    }
    return n;
}

} // namespace sevf::memory
