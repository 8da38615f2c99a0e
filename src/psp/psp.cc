#include "psp/psp.h"

#include <memory>

#include "base/logging.h"
#include "base/bytes.h"
#include "base/trust_zones.h"
#include "crypto/sha256.h"
#include "crypto/xex.h"
#include "fault/fault.h"
#include "obs/families.h"
#include "obs/span.h"

namespace sevf::psp {

namespace {

/**
 * Consult the fault injector for one PSP command submission. Runs
 * before the device model touches any guest state, so an injected
 * transient means "the mailbox never accepted the command": the retry
 * loop can resubmit without double-extending the measurement chain.
 */
Status
submitFault(const char *cmd)
{
    return fault::FaultInjector::instance().check(
        fault::FaultSite::kPspCommand, cmd);
}

} // namespace

void
TicketGate::enter()
{
    u64 start_ns = obs::metricsEnabled() ? obs::wallNowNs() : 0;
    u64 depth = 0;
    {
        base::MutexLock lock(mu_);
        u64 ticket = next_ticket_++;
        depth = ticket - serving_;
        while (serving_ != ticket) {
            turn_.wait(lock.native());
        }
    }
    if (start_ns != 0) {
        obs::kPspGateWaitNs.observe(obs::wallNowNs() - start_ns);
        obs::kPspGateDepth.setMax(static_cast<i64>(depth));
    }
}

void
TicketGate::leave()
{
    base::MutexLock lock(mu_);
    ++serving_;
    turn_.notify_all();
}

ByteVec
synthesizeVmsa(u32 vcpu_index, u32 policy)
{
    ByteVec vmsa(kPageSize, 0);
    storeLe<u32>(vmsa.data(), vcpu_index);
    storeLe<u32>(vmsa.data() + 4, policy);
    storeLe<u64>(vmsa.data() + 8, 0xfff0); // reset %rip convention
    return vmsa;
}

Psp::Psp(std::string chip_id, KeyServer &key_server, u64 seed)
    : chip_id_(std::move(chip_id)), rng_(seed)
{
    rng_.fill(chip_key_);
    chip_key_label_.set(chip_key_.data(), chip_key_.size(),
                        taint::kChipKey);
    Status provisioned = key_server.provision(chip_id_, chip_key_);
    if (!provisioned.isOk()) {
        fatal("PSP chip provisioning failed: ", provisioned.toString());
    }
    // Eager registration: the retry families are kBootExport rows, so
    // every export lists them, zero-valued on fault-free boots.
    for (const char *op :
         {"launch_start", "launch_update_data",
          "launch_update_data_premeasured", "launch_update_vmsa",
          "launch_measure", "launch_finish"}) {
        fault::registerRetryMetrics(op);
    }
}

void
Psp::setRetryPolicy(const fault::RetryPolicy &policy)
{
    TicketGate::Turn turn(gate_);
    retry_policy_ = policy;
}

fault::RetryPolicy
Psp::retryPolicy() const
{
    TicketGate::Turn turn(gate_);
    return retry_policy_;
}

Result<Psp::GuestContext *>
Psp::contextFor(GuestHandle handle)
{
    auto it = guests_.find(handle);
    if (it == guests_.end()) {
        return errNotFound("unknown guest handle");
    }
    return &it->second;
}

Result<const Psp::GuestContext *>
Psp::contextFor(GuestHandle handle) const
{
    auto it = guests_.find(handle);
    if (it == guests_.end()) {
        return errNotFound("unknown guest handle");
    }
    return &it->second;
}

void
Psp::observe(check::PspCommand cmd, GuestHandle handle,
             const Status &verdict) const
{
    obs::kPspCommands.add(check::pspCommandName(cmd));
    if (!verdict.isOk()) {
        obs::kPspCommandErrors.add(check::pspCommandName(cmd));
    }
    command_log_.record(cmd, handle, verdict);
    if (verdict.isOk()) {
        // The device model just accepted this command; the independent
        // GCTX automaton must agree it was legal, or the root of trust
        // has a launch-ordering hole.
        Status legal = protocol_.command(cmd, handle);
        if (!legal.isOk()) {
            panic("PSP accepted a protocol-illegal command: ",
                  legal.message());
        }
    }
}

Result<GuestHandle>
Psp::execLaunchStart(memory::GuestMemory &mem, u32 policy, bool shared)
{
    if (mem.sevEnabled()) {
        return errInvalidState("guest memory already has an encryption key");
    }
    if (mem.asid() == 0) {
        return errInvalidArgument("SEV guest needs a non-zero ASID");
    }

    if (shared) {
        if (!shared_key_ready_) {
            rng_.fill(shared_vek_);
            rng_.fill(shared_tweak_);
            shared_vek_label_.set(shared_vek_.data(), shared_vek_.size(),
                                  taint::kVek);
            shared_tweak_label_.set(shared_tweak_.data(),
                                    shared_tweak_.size(), taint::kVek);
            shared_key_ready_ = true;
        }
        mem.attachEncryption(
            std::make_unique<crypto::XexCipher>(shared_vek_, shared_tweak_));
    } else {
        // Generate the per-guest VEK + tweak key and hand the engine to
        // the memory controller. The stack copies are labelled only for
        // this scope; the XexCipher inherits the label into its key
        // schedules for the engine's lifetime.
        crypto::Aes128Key vek, tweak;
        rng_.fill(vek);
        rng_.fill(tweak);
        taint::ScopedTaint vek_guard(vek.data(), vek.size(), taint::kVek);
        taint::ScopedTaint tweak_guard(tweak.data(), tweak.size(),
                                       taint::kVek);
        mem.attachEncryption(std::make_unique<crypto::XexCipher>(vek, tweak));
    }

    GuestHandle handle = next_handle_++;
    GuestContext ctx;
    ctx.asid = mem.asid();
    ctx.policy = policy;
    guests_.emplace(handle, std::move(ctx));
    return handle;
}

u32
Psp::allocateAsid()
{
    TicketGate::Turn turn(gate_);
    return next_asid_++;
}

void
Psp::clearCommandLog()
{
    TicketGate::Turn turn(gate_);
    command_log_.clear();
}

Result<GuestHandle>
Psp::launchStart(memory::GuestMemory &mem, u32 policy)
{
    TicketGate::Turn turn(gate_);
    SEVF_SPAN("psp.launch_start");
    Result<GuestHandle> r = fault::retryResult(
        retry_policy_, "launch_start", [&]() -> Result<GuestHandle> {
            SEVF_RETURN_IF_ERROR(submitFault("LAUNCH_START"));
            return execLaunchStart(mem, policy, /*shared=*/false);
        });
    observe(check::PspCommand::kLaunchStart, r.isOk() ? *r : 0,
            r.errorOr(Status::ok()));
    return r;
}

Result<GuestHandle>
Psp::launchStartShared(memory::GuestMemory &mem, u32 policy)
{
    TicketGate::Turn turn(gate_);
    SEVF_SPAN("psp.launch_start");
    Result<GuestHandle> r = fault::retryResult(
        retry_policy_, "launch_start", [&]() -> Result<GuestHandle> {
            SEVF_RETURN_IF_ERROR(submitFault("LAUNCH_START"));
            return execLaunchStart(mem, policy, /*shared=*/true);
        });
    observe(check::PspCommand::kLaunchStart, r.isOk() ? *r : 0,
            r.errorOr(Status::ok()));
    return r;
}

Status
Psp::execLaunchUpdateData(GuestHandle handle, memory::GuestMemory &mem,
                          Gpa gpa, u64 len)
{
    SEVF_ASSIGN_OR_RETURN(GuestContext *ctx, contextFor(handle));
    if (ctx->state != LaunchState::kStarted) {
        return errInvalidState(
            "LAUNCH_UPDATE_DATA after LAUNCH_FINISH is rejected");
    }
    if (ctx->asid != mem.asid()) {
        return errInvalidArgument("guest memory ASID mismatch");
    }
    if (len == 0) {
        return errInvalidArgument("empty LAUNCH_UPDATE_DATA region");
    }

    // Measure the plaintext the hypervisor staged, page by page, exactly
    // like the expected-measurement tool will (attest module).
    SEVF_ASSIGN_OR_RETURN(ByteVec plaintext, mem.hostRead(gpa, len));
    ctx->measured_pages += ctx->digest.extendRegion(
        crypto::MeasuredPageType::kNormal, gpa, plaintext);

    // Then convert the pages to encrypted guest-owned state.
    return mem.pspEncryptInPlace(gpa, len);
}

Status
Psp::execLaunchUpdateDataPremeasured(
    GuestHandle handle, memory::GuestMemory &mem, Gpa gpa, u64 len,
    const std::vector<crypto::Sha256Digest> &page_digests)
{
    SEVF_ASSIGN_OR_RETURN(GuestContext *ctx, contextFor(handle));
    if (ctx->state != LaunchState::kStarted) {
        return errInvalidState(
            "LAUNCH_UPDATE_DATA after LAUNCH_FINISH is rejected");
    }
    if (ctx->asid != mem.asid()) {
        return errInvalidArgument("guest memory ASID mismatch");
    }
    if (len == 0) {
        return errInvalidArgument("empty LAUNCH_UPDATE_DATA region");
    }
    if (page_digests.size() != pagesFor(len)) {
        return errInvalidArgument(
            "premeasured digest count does not cover the region");
    }

    // Replay the per-page content digests into the chain instead of
    // re-hashing the plaintext; the chain fold itself (and therefore
    // the final measurement) is identical to the cold path's.
    for (std::size_t i = 0; i < page_digests.size(); ++i) {
        ctx->digest.extend(crypto::MeasuredPageType::kNormal,
                           gpa + i * kPageSize, page_digests[i]);
    }
    ctx->measured_pages += page_digests.size();

    // The pages still convert to encrypted guest-owned state for real.
    return mem.pspEncryptInPlace(gpa, len);
}

Status
Psp::execLaunchUpdateVmsa(GuestHandle handle, memory::GuestMemory &mem,
                          u32 vcpu_index, Gpa vmsa_gpa)
{
    SEVF_ASSIGN_OR_RETURN(GuestContext *ctx, contextFor(handle));
    if (ctx->state != LaunchState::kStarted) {
        return errInvalidState("LAUNCH_UPDATE_VMSA after LAUNCH_FINISH");
    }
    if (!hasEncryptedState(mem.sevMode())) {
        return errUnsupported("VMSA measurement needs SEV-ES or SEV-SNP");
    }

    ByteVec vmsa = synthesizeVmsa(vcpu_index, ctx->policy);
    SEVF_RETURN_IF_ERROR(mem.hostWrite(vmsa_gpa, vmsa));

    ctx->digest.extend(crypto::MeasuredPageType::kVmsa, vmsa_gpa,
                          crypto::Sha256::digest(vmsa));
    ctx->measured_pages += 1;
    return mem.pspEncryptInPlace(vmsa_gpa, kPageSize);
}

Result<crypto::Sha256Digest>
Psp::execLaunchMeasure(GuestHandle handle) const
{
    SEVF_ASSIGN_OR_RETURN(const GuestContext *ctx, contextFor(handle));
    if (ctx->measured_pages == 0) {
        // Matches the GCTX automaton: a digest over nothing attests
        // nothing, so the spec flow always measures after updates.
        return errInvalidState("LAUNCH_MEASURE before any LAUNCH_UPDATE");
    }
    return ctx->digest.value();
}

Status
Psp::execLaunchFinish(GuestHandle handle)
{
    SEVF_ASSIGN_OR_RETURN(GuestContext *ctx, contextFor(handle));
    if (ctx->state != LaunchState::kStarted) {
        return errInvalidState("guest launch already finished");
    }
    ctx->state = LaunchState::kFinished;
    return Status::ok();
}

Result<AttestationReport>
Psp::execGuestRequestReport(GuestHandle handle,
                            const ReportData &report_data) const
{
    SEVF_ASSIGN_OR_RETURN(const GuestContext *ctx, contextFor(handle));
    if (ctx->state != LaunchState::kFinished) {
        return errInvalidState("report requested before LAUNCH_FINISH");
    }
    // Every report field is public by the SNP ABI; the guest-chosen
    // report_data travels to the guest owner in the clear, so labelled
    // bytes here mean the guest is about to publish a secret.
    taint::guardSink(taint::Sink::kReportField, report_data.data(),
                     report_data.size(),
                     "MSG_REPORT_REQ report_data (public report field)");
    AttestationReport report;
    report.chip_id = chip_id_;
    report.policy = ctx->policy;
    report.asid = ctx->asid;
    report.measurement = ctx->digest.value();
    report.report_data = report_data;
    report.sign(chip_key_);
    return report;
}

Status
Psp::launchUpdateData(GuestHandle handle, memory::GuestMemory &mem, Gpa gpa,
                      u64 len)
{
    TicketGate::Turn turn(gate_);
    SEVF_SPAN("psp.launch_update_data", "bytes", len);
    Status s = fault::retryStatus(retry_policy_, "launch_update_data", [&] {
        SEVF_RETURN_IF_ERROR(submitFault("LAUNCH_UPDATE_DATA"));
        return execLaunchUpdateData(handle, mem, gpa, len);
    });
    observe(check::PspCommand::kLaunchUpdateData, handle, s);
    return s;
}

Status
Psp::launchUpdateDataPremeasured(
    GuestHandle handle, memory::GuestMemory &mem, Gpa gpa, u64 len,
    const std::vector<crypto::Sha256Digest> &page_digests)
{
    TicketGate::Turn turn(gate_);
    SEVF_SPAN("psp.launch_update_data_premeasured", "bytes", len);
    Status s = fault::retryStatus(
        retry_policy_, "launch_update_data_premeasured", [&] {
            SEVF_RETURN_IF_ERROR(submitFault("LAUNCH_UPDATE_DATA"));
            return execLaunchUpdateDataPremeasured(handle, mem, gpa, len,
                                                   page_digests);
        });
    // The GCTX automaton sees an ordinary LAUNCH_UPDATE_DATA: where the
    // content digests came from is not a protocol-level distinction.
    observe(check::PspCommand::kLaunchUpdateData, handle, s);
    return s;
}

Status
Psp::launchUpdateVmsa(GuestHandle handle, memory::GuestMemory &mem,
                      u32 vcpu_index, Gpa vmsa_gpa)
{
    TicketGate::Turn turn(gate_);
    SEVF_SPAN("psp.launch_update_vmsa");
    Status s = fault::retryStatus(retry_policy_, "launch_update_vmsa", [&] {
        SEVF_RETURN_IF_ERROR(submitFault("LAUNCH_UPDATE_VMSA"));
        return execLaunchUpdateVmsa(handle, mem, vcpu_index, vmsa_gpa);
    });
    observe(check::PspCommand::kLaunchUpdateVmsa, handle, s);
    return s;
}

Result<crypto::Sha256Digest>
Psp::launchMeasure(GuestHandle handle) const
{
    TicketGate::Turn turn(gate_);
    SEVF_SPAN("psp.launch_measure");
    Result<crypto::Sha256Digest> r = fault::retryResult(
        retry_policy_, "launch_measure",
        [&]() -> Result<crypto::Sha256Digest> {
            SEVF_RETURN_IF_ERROR(submitFault("LAUNCH_MEASURE"));
            return execLaunchMeasure(handle);
        });
    observe(check::PspCommand::kLaunchMeasure, handle,
            r.errorOr(Status::ok()));
    return r;
}

Status
Psp::launchFinish(GuestHandle handle)
{
    TicketGate::Turn turn(gate_);
    SEVF_SPAN("psp.launch_finish");
    Status s = fault::retryStatus(retry_policy_, "launch_finish", [&] {
        SEVF_RETURN_IF_ERROR(submitFault("LAUNCH_FINISH"));
        return execLaunchFinish(handle);
    });
    observe(check::PspCommand::kLaunchFinish, handle, s);
    return s;
}

Result<AttestationReport>
Psp::guestRequestReport(GuestHandle handle,
                        const ReportData &report_data) const SEVF_TCB_EXEMPT
{
    TicketGate::Turn turn(gate_);
    SEVF_SPAN("psp.guest_request_report");
    Result<AttestationReport> r =
        execGuestRequestReport(handle, report_data);
    observe(check::PspCommand::kReportRequest, handle,
            r.errorOr(Status::ok()));
    return r;
}

Result<u64>
Psp::measuredPageCount(GuestHandle handle) const
{
    TicketGate::Turn turn(gate_);
    SEVF_ASSIGN_OR_RETURN(const GuestContext *ctx, contextFor(handle));
    return ctx->measured_pages;
}

} // namespace sevf::psp
