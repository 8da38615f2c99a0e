#include "memory/dram.h"

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "fault/fault.h"
#include "obs/families.h"

namespace sevf::memory {

DramBuffer::DramBuffer(u64 size) : size_(size)
{
    if (size_ == 0) {
        return;
    }
    // Allocation-failure fault domain: an injected kDramMmap fault (or
    // a real mmap failure) degrades to the eager-zeroed heap fallback —
    // slower first touch, identical guest-visible contents, so launch
    // measurements are unaffected.
    Status injected = fault::FaultInjector::instance().check(
        fault::FaultSite::kDramMmap, "anonymous guest DRAM mapping");
#ifdef __linux__
    if (injected.isOk()) {
        void *p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p != MAP_FAILED) {
            data_ = static_cast<u8 *>(p);
            mapped_ = true;
            return;
        }
    }
#else
    (void)injected;
#endif
    obs::kDramMmapFallback.add();
    fallback_.resize(size_, 0);
    data_ = fallback_.data();
}

DramBuffer::~DramBuffer()
{
#ifdef __linux__
    if (mapped_) {
        ::munmap(data_, size_);
    }
#endif
}

} // namespace sevf::memory
