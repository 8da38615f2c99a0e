/**
 * @file
 * Quickstart: cold-boot one SEV-SNP microVM with SEVeriFast and print
 * its boot timeline (the §6.1 debug-port markers) and phase breakdown.
 *
 *   $ ./build/examples/quickstart
 *
 * This runs the whole pipeline functionally: the VMM stages a real LZ4
 * bzImage + initrd, the PSP measures and encrypts the ~21 KiB root of
 * trust, the boot verifier re-hashes the components in encrypted
 * memory, the bootstrap loader decompresses the kernel, and remote
 * attestation provisions a secret over the simulated channel.
 */
#include <cstdio>

#include "base/bytes.h"
#include "core/launch.h"
#include "core/report.h"
#include "stats/table.h"
#include "workload/synthetic.h"

using namespace sevf;

int
main()
{
    std::printf("SEVeriFast quickstart: booting one SEV-SNP microVM "
                "(AWS kernel config)\n\n");

    core::Platform platform;
    core::LaunchRequest request;
    request.kernel = workload::KernelConfig::kAws;

    std::unique_ptr<core::BootStrategy> strategy =
        core::makeStrategy(core::StrategyKind::kSeveriFastBz);
    Result<core::LaunchResult> result = strategy->launch(platform, request);
    if (!result.isOk()) {
        std::fprintf(stderr, "launch failed: %s\n",
                     result.status().toString().c_str());
        return 1;
    }

    std::printf("--- boot timeline ---\n%s\n",
                core::renderTimeline(result->trace).c_str());

    stats::Table phases({"phase", "time"});
    for (const std::string &phase : result->trace.phases()) {
        phases.addRow(
            {phase,
             stats::fmtMs(result->trace.phaseTotal(phase).toMsF())});
    }
    phases.print();

    std::printf("\nboot time (to init): %s\n",
                result->bootTime().toString().c_str());
    std::printf("end-to-end incl. attestation: %s\n",
                result->totalTime().toString().c_str());
    std::printf("root of trust: %llu bytes pre-encrypted\n",
                static_cast<unsigned long long>(result->pre_encrypted_bytes));
    std::printf("launch measurement: %s\n",
                toHex(ByteSpan(result->measurement.data(),
                               result->measurement.size()))
                    .c_str());
    std::printf("attested: %s (secret: %llu bytes provisioned)\n",
                result->attested ? "yes" : "no",
                static_cast<unsigned long long>(
                    result->provisioned_secret_bytes));
    return 0;
}
