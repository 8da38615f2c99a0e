/**
 * @file
 * Zero-on-demand DRAM backing for guest memory and for the bootstrap
 * loader's decompression area.
 *
 * A freshly created VM's memory is all zeros, but value-initializing a
 * ByteVec pays an eager memset over the whole guest (130+ ms for a
 * 256 MiB guest — more than an entire warm launch). Real VMMs mmap
 * anonymous memory instead and let the kernel hand out zero pages on
 * first touch; DramBuffer does the same, with a ByteVec fallback on
 * platforms without mmap. Reads of never-written pages hit the shared
 * zero page and allocate nothing.
 *
 * Backing rule: every mapping is advised onto transparent 2 MiB pages
 * (MADV_HUGEPAGE). A cold launch writes its buffers densely (the
 * decoded vmlinux, the kernel segments, the verifier's private copies),
 * so one fault per 2 MiB replaces 512 first-touch faults, and teardown
 * unmaps a few hundred huge pages instead of tens of thousands of
 * 4 KiB ones — the host-side counterpart of the paper's §6.1 2 MiB
 * pvalidate result.
 *
 * The one opt-out, useSmallPages(), is for buffers written sparsely. A
 * VM restored from a template touches a few scattered pages, and on
 * 2 MiB pages each touch would fault in and zero a whole huge page.
 * The advice is only advice: with THP set to `never`, or on the heap
 * fallback, every buffer gets 4 KiB pages and behaves as before.
 */
#ifndef SEVF_MEMORY_DRAM_H_
#define SEVF_MEMORY_DRAM_H_

#include "base/types.h"

namespace sevf::memory {

/**
 * A fixed-size, zero-initialized byte buffer with vector-like
 * accessors (data/size/begin/end, pointer iterators) so it drops into
 * code written against ByteVec. Not resizable; not copyable.
 */
class DramBuffer
{
  public:
    explicit DramBuffer(u64 size);
    ~DramBuffer();

    DramBuffer(const DramBuffer &) = delete;
    DramBuffer &operator=(const DramBuffer &) = delete;

    /**
     * Back this buffer with 4 KiB pages (MADV_NOHUGEPAGE). Call before
     * the first write: pages already faulted in keep their size.
     */
    void useSmallPages();

    u8 *data() { return data_; }
    const u8 *data() const { return data_; }
    u64 size() const { return size_; }

    u8 *begin() { return data_; }
    u8 *end() { return data_ + size_; }
    const u8 *begin() const { return data_; }
    const u8 *end() const { return data_ + size_; }

  private:
    u8 *data_ = nullptr;
    u64 size_ = 0;
    bool mapped_ = false; //!< mmap'd (munmap on destruction) vs fallback
    ByteVec fallback_;    //!< used when mmap is unavailable/fails
};

} // namespace sevf::memory

#endif // SEVF_MEMORY_DRAM_H_
