/**
 * @file
 * Intel MultiProcessor Specification table builder (the mptable row of
 * Fig 7: 284 B + 20 B per CPU, pre-encrypted because the ~4 KB of
 * generator code would be larger than the structure).
 */
#ifndef SEVF_VMM_MPTABLE_H_
#define SEVF_VMM_MPTABLE_H_

#include "base/status.h"
#include "base/types.h"

namespace sevf::vmm {

/**
 * The most vCPUs one table can number: the CPUs take APIC ids 0 to
 * vcpus-1 and the IO-APIC takes id vcpus, all 8-bit and below the
 * broadcast id 0xFF. core::checkLaunchRequest refuses larger VMs.
 */
inline constexpr u32 kMaxMptableVcpus = 254;

/**
 * Build the MP floating pointer + configuration table for @p vcpus
 * CPUs: processor entries, one ISA bus, the IO-APIC, 24 I/O interrupt
 * entries and 2 local interrupt entries, with valid checksums.
 */
ByteVec buildMptable(u32 vcpus);

/** Size formula (tested against buildMptable): fixed + 20/CPU. */
u64 mptableSize(u32 vcpus);

/** Validate signatures and checksums; returns the CPU count. */
Result<u32> validateMptable(ByteSpan table);

} // namespace sevf::vmm

#endif // SEVF_VMM_MPTABLE_H_
