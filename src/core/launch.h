/**
 * @file
 * The SEVeriFast public API: boot strategies and launch results.
 *
 * A BootStrategy runs one cold boot end to end - functionally (real
 * staging, pre-encryption, verification, decompression, attestation)
 * while charging virtual time into a BootTrace. Five strategies cover
 * the paper's comparison space:
 *
 *  - kStockFirecracker: non-SEV direct boot baseline (§2.1)
 *  - kQemuOvmfSev:      the QEMU/OVMF state of the art (§2.5, Fig 3)
 *  - kSevDirectBoot:    pre-encrypt the whole kernel (§3.2 strawman)
 *  - kSeveriFastBz:     SEVeriFast with an LZ4 bzImage (§4, the design)
 *  - kSeveriFastVmlinux: SEVeriFast with the §5 streaming ELF loader
 */
#ifndef SEVF_CORE_LAUNCH_H_
#define SEVF_CORE_LAUNCH_H_

#include <memory>
#include <string>
#include <vector>

// Forward declarations to keep the header light.
namespace sevf::vmm {
class MicroVm;
}
namespace sevf::attest {
struct PreEncryptedRegion;
}
namespace sevf::cache {
struct LaunchTemplate;
}

#include "cache/launch_key.h"
#include "compress/codec.h"
#include "memory/sev_mode.h"
#include "core/platform.h"
#include "crypto/sha256.h"
#include "sim/trace.h"
#include "verifier/boot_verifier.h"
#include "vmm/debug_port.h"
#include "vmm/vm_config.h"
#include "workload/kernel_spec.h"

namespace sevf::core {

enum class StrategyKind {
    kStockFirecracker,
    kQemuOvmfSev,
    kSevDirectBoot,
    kSeveriFastBz,
    kSeveriFastVmlinux,
};

const char *strategyName(StrategyKind kind);

/** Everything a launch needs. */
struct LaunchRequest {
    workload::KernelConfig kernel = workload::KernelConfig::kAws;
    /** Artifact scale: 1.0 for paper-sized benches, smaller for tests. */
    double scale = 1.0;
    vmm::VmConfig vm;
    /** Run remote attestation after boot (skipped automatically for
     *  kernels without networking, like Lupine - §6.1). */
    bool attest = true;
    /** §4.3 out-of-band hashing; false re-adds the VMM hash time. */
    bool out_of_band_hashing = true;
    /** Codec for the bzImage payload (SEVeriFast/QEMU paths). */
    compress::CodecKind kernel_codec = compress::CodecKind::kLz4;
    /** Codec for the initrd; the paper's Fig 5 answer is kNone. */
    compress::CodecKind initrd_codec = compress::CodecKind::kNone;
    /** Override the boot-verifier binary size (ablation; 0 = the
     *  13 KiB SEVeriFast verifier). */
    u64 verifier_size = 0;
    /** SEV generation for the confidential strategies (§5: the port
     *  supports SEV, SEV-ES, and SEV-SNP guests). */
    memory::SevMode sev_mode = memory::SevMode::kSevSnp;
    /**
     * FUTURE-WORK EXTENSION (§6.2): launch with the shared platform key
     * to relieve the PSP. Weakens the trust model (guests share a
     * cryptographic domain) - see bench_ext_psp_keyshare.
     */
    bool share_platform_key = false;
    /**
     * EXTENSION (§8): guest-side KASLR in the bootstrap loader. The
     * paper notes SEVeriFast breaks in-monitor KASLR; randomizing
     * inside the guest restores it without telling the host the layout.
     */
    bool guest_kaslr = false;
    /** Retain the booted VM in LaunchResult::vm (memory-hungry; used
     *  by the warm-start exploration to inspect guest memory). */
    bool keep_vm = false;
    /** Per-launch determinism (guest ephemeral keys, owner nonces). */
    u64 seed = 1;
    /**
     * Host worker threads for the page-parallel launch pipeline
     * (pre-encryption, measurement page digests, out-of-band hashing,
     * image staging). 0 and 1 both mean fully serial. The thread
     * count is invisible in results: measurements, attestation
     * reports, and simulated timings are bit-identical at every value.
     */
    unsigned host_threads = 0;
    /**
     * Consult the platform's launch-template cache: a hit skips image
     * parsing, compression, hashing, and pre-encryption entirely and
     * replays the recorded measurement chain instead (cache/). The
     * result is bit-identical to a cold boot - same measurement, same
     * BootTrace, same timeline; only host wall-clock changes. Launches
     * with guest_kaslr set always boot cold (the slide is per-launch
     * entropy by design).
     */
    bool use_template_cache = true;
};

/** Outcome of one cold boot. */
struct LaunchResult {
    StrategyKind strategy;
    /** Unjittered virtual-time steps; see sim::jitterTrace for CDFs. */
    sim::BootTrace trace;
    /** Debug-port timeline (§6.1 methodology). */
    vmm::DebugPort timeline;

    /** Launch digest (SEV strategies). */
    crypto::Sha256Digest measurement{};
    /** Verifier work counters (SEVeriFast paths). */
    verifier::VerifierStats verifier_stats;
    /** True when remote attestation ran and the secret arrived. */
    bool attested = false;
    u64 provisioned_secret_bytes = 0;
    /** Bytes the PSP measured+encrypted (the root-of-trust payload). */
    u64 pre_encrypted_bytes = 0;
    /** KASLR slide chosen in-guest (0 unless guest_kaslr). */
    u64 kaslr_slide = 0;
    /** The booted VM, retained only when LaunchRequest::keep_vm. */
    std::shared_ptr<vmm::MicroVm> vm;
    /** True when this launch was served from the template cache. */
    bool cache_hit = false;

    /** Total boot time excluding/including attestation. */
    sim::Duration bootTime() const;
    sim::Duration totalTime() const { return trace.total(); }
};

class TraceBuilder;

/**
 * A boot scheme. One instance serves one launch at a time: launch()
 * keeps per-launch template-capture state in the strategy object, so
 * concurrent launches must each use their own instance (the admission
 * pipeline constructs one per request).
 */
class BootStrategy
{
  public:
    virtual ~BootStrategy() = default;

    BootStrategy() = default;
    BootStrategy(const BootStrategy &) = delete;
    BootStrategy &operator=(const BootStrategy &) = delete;

    virtual StrategyKind kind() const = 0;
    std::string_view name() const { return strategyName(kind()); }

    /**
     * Run one boot. Installs the request's host-thread count for the
     * launch, consults the platform's template cache (warm boot on a
     * hit, single-flight template capture on a miss), then runs the
     * strategy cold if no usable template exists.
     */
    Result<LaunchResult> launch(Platform &platform,
                                const LaunchRequest &request);

  protected:
    /** Strategy body; runs with the host-thread knob already set. */
    virtual Result<LaunchResult> doLaunch(Platform &platform,
                                          const LaunchRequest &request) = 0;

    /**
     * Capture hook, called by each strategy at the template point: the
     * instant where all host-side launch work (staging, pre-encryption,
     * measurement, verifier, bootstrap) is done and only the guest boot
     * tail remains. No-op unless launch() claimed a single-flight
     * template build for this launch. @p tail_in_steps marks strategies
     * whose trace already includes the tail at the capture point (the
     * non-SEV baseline); warm boots then skip the live tail.
     */
    void maybeCaptureTemplate(
        const LaunchRequest &request, vmm::MicroVm &vm,
        const TraceBuilder &tb,
        const std::vector<attest::PreEncryptedRegion> &plan,
        const LaunchResult &result, bool tail_in_steps);

  private:
    /** Warm boot from a cached template (strategies.cc). */
    Result<LaunchResult> launchFromTemplate(Platform &platform,
                                            const LaunchRequest &request,
                                            const cache::LaunchTemplate &t);

    /** Single-flight build claim for the launch currently running. */
    struct TemplateClaim {
        bool armed = false;
        std::shared_ptr<cache::LaunchTemplate> built;
    };
    TemplateClaim claim_;
};

/**
 * The template-cache key for @p request under @p kind: a digest over
 * every input that shapes the prepared launch state - strategy, kernel
 * artifacts (by content digest), codecs, VM shape, SEV mode/policy, and
 * the full cost-parameter set (step durations live in the cached
 * trace). Deliberately excludes attest, seed, keep_vm, and
 * host_threads: none of them affect the template (the attested tail
 * always runs live, and thread count is invisible in results).
 */
cache::LaunchKey buildLaunchKey(const Platform &platform,
                                const LaunchRequest &request,
                                StrategyKind kind);

/** Factory for the five strategies. */
std::unique_ptr<BootStrategy> makeStrategy(StrategyKind kind);

} // namespace sevf::core

#endif // SEVF_CORE_LAUNCH_H_
