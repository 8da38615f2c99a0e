/**
 * @file
 * Secret-flow taint tests: label algebra, RAII scoping, propagation
 * through guest memory and the crypto engines, every host-visible sink
 * (including deliberately leaky flows that must be caught with an
 * actionable diagnostic), declassification, enforce-mode panics, and
 * all five boot strategies running clean under full enforcement.
 */
#include <gtest/gtest.h>

#include "attest/guest_owner.h"
#include "core/launch.h"
#include "guest/attestation_client.h"
#include "memory/guest_memory.h"
#include "psp/key_server.h"
#include "psp/psp.h"
#include "taint/taint.h"
#include "vmm/fw_cfg.h"

namespace sevf {
namespace {

/** Claim+validate a GPA range for private (C-bit) guest access. */
void
claim(memory::GuestMemory &mem, Gpa gpa, u64 len)
{
    for (Gpa p = alignDown(gpa, kPageSize); p < gpa + len; p += kPageSize) {
        ASSERT_TRUE(
            mem.rmp().rmpUpdate(mem.spaOf(p), mem.asid(), p, true).isOk());
        ASSERT_TRUE(
            mem.rmp().pvalidate(mem.spaOf(p), mem.asid(), p, true).isOk());
    }
}

class TaintTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        taint::clearViolations();
        taint::setMode(taint::Mode::kRecord);
    }
};

TEST_F(TaintTest, MarkQueryClearRange)
{
    ByteVec buf(64, 0);
    EXPECT_EQ(taint::query(buf.data(), buf.size()), taint::kNone);

    taint::mark(buf.data() + 16, 16, taint::kVek);
    EXPECT_EQ(taint::query(buf.data(), buf.size()), taint::kVek);
    EXPECT_EQ(taint::query(buf.data(), 16), taint::kNone);
    EXPECT_EQ(taint::query(buf.data() + 32, 32), taint::kNone);
    EXPECT_EQ(taint::query(buf.data() + 20, 4), taint::kVek);

    // Labels join, never overwrite.
    taint::mark(buf.data() + 20, 8, taint::kLaunchSecret);
    EXPECT_EQ(taint::query(buf.data() + 20, 4),
              taint::kVek | taint::kLaunchSecret);

    // Clearing a subrange splits the segment.
    taint::clearRange(buf.data() + 20, 8);
    EXPECT_EQ(taint::query(buf.data() + 20, 8), taint::kNone);
    EXPECT_EQ(taint::query(buf.data() + 16, 4), taint::kVek);
    EXPECT_EQ(taint::query(buf.data() + 28, 4), taint::kVek);

    taint::clearRange(buf.data(), buf.size());
    EXPECT_EQ(taint::query(buf.data(), buf.size()), taint::kNone);
}

TEST_F(TaintTest, ScopedTaintClearsOnExit)
{
    ByteVec buf(32, 0);
    {
        taint::ScopedTaint guard(buf.data(), buf.size(),
                                 taint::kTransportKey);
        EXPECT_EQ(taint::query(buf.data(), buf.size()),
                  taint::kTransportKey);
    }
    EXPECT_EQ(taint::query(buf.data(), buf.size()), taint::kNone);
}

TEST_F(TaintTest, ScopedLabelSetAndReset)
{
    ByteVec buf(32, 0);
    taint::ScopedLabel label;
    label.set(buf.data(), buf.size(), taint::kChipKey);
    EXPECT_EQ(taint::query(buf.data(), buf.size()), taint::kChipKey);
    label.reset();
    EXPECT_EQ(taint::query(buf.data(), buf.size()), taint::kNone);
}

TEST_F(TaintTest, DescribeLabels)
{
    EXPECT_EQ(taint::describeLabels(taint::kNone), "public");
    EXPECT_EQ(taint::describeLabels(taint::kVek | taint::kLaunchSecret),
              "vek|launch-secret");
}

TEST_F(TaintTest, DeclassifyClearsAndAudits)
{
    u64 before = taint::declassificationCount();
    ByteVec buf(16, 0);
    taint::mark(buf.data(), buf.size(), taint::kLaunchSecret);
    taint::declassify(buf.data(), buf.size(),
                      "test: reviewed release of a fingerprint");
    EXPECT_EQ(taint::query(buf.data(), buf.size()), taint::kNone);
    EXPECT_GT(taint::declassificationCount(), before);
}

// ---- Sink coverage: every leaky flow is caught in record mode ----------

TEST_F(TaintTest, HostWriteSinkCatchesLeak)
{
    memory::GuestMemory mem(4 * kPageSize, 0, /*asid=*/1);
    ByteVec secret(32, 0xaa);
    taint::ScopedTaint guard(secret.data(), secret.size(),
                             taint::kLaunchSecret);
    ASSERT_TRUE(mem.hostWrite(0, secret).isOk());
    ASSERT_EQ(taint::violationCount(), 1u);
    taint::Violation v = taint::violations().front();
    EXPECT_EQ(v.sink, taint::Sink::kHostWrite);
    EXPECT_EQ(v.labels, taint::kLaunchSecret);
    // The diagnostic tells the reader what leaked, where, and what to
    // do about an intentional flow.
    EXPECT_NE(v.message.find("launch-secret"), std::string::npos);
    EXPECT_NE(v.message.find("host-write"), std::string::npos);
    EXPECT_NE(v.message.find("declassify"), std::string::npos);
}

TEST_F(TaintTest, SharedPageWriteSinkCatchesLeak)
{
    psp::KeyServer kds;
    psp::Psp psp("taint-chip", kds, 11);
    memory::GuestMemory mem(4 * kPageSize, 0, psp.allocateAsid());
    ASSERT_TRUE(psp.launchStart(mem, 0).isOk());

    ByteVec secret(16, 0xbb);
    taint::ScopedTaint guard(secret.data(), secret.size(), taint::kVek);
    // C-bit clear: plaintext through a shared mapping.
    ASSERT_TRUE(mem.guestWrite(0, secret, /*c_bit=*/false).isOk());
    ASSERT_EQ(taint::violationCount(), 1u);
    EXPECT_EQ(taint::violations().front().sink,
              taint::Sink::kSharedPageWrite);
}

TEST_F(TaintTest, FwCfgSinkCatchesLeak)
{
    memory::GuestMemory mem(16 * kPageSize, 0, /*asid=*/0,
                            memory::SevMode::kNone);
    vmm::FwCfg fw_cfg(mem, 0, 8 * kPageSize);
    ByteVec secret(64, 0xcc);
    taint::ScopedTaint guard(secret.data(), secret.size(),
                             taint::kLaunchSecret);
    ASSERT_TRUE(fw_cfg.addItem("kernel/leak", secret).isOk());
    ASSERT_GE(taint::violationCount(), 1u);
    EXPECT_EQ(taint::violations().front().sink, taint::Sink::kFwCfg);
    EXPECT_NE(taint::violations().front().message.find("kernel/leak"),
              std::string::npos);
}

TEST_F(TaintTest, ReportFieldSinkCatchesLeak)
{
    psp::KeyServer kds;
    psp::Psp psp("taint-chip-2", kds, 13);
    memory::GuestMemory mem(4 * kPageSize, 0, psp.allocateAsid());
    Result<psp::GuestHandle> handle = psp.launchStart(mem, 0);
    ASSERT_TRUE(handle.isOk());
    ASSERT_TRUE(mem.hostWrite(0, ByteVec(kPageSize, 1)).isOk());
    ASSERT_TRUE(psp.launchUpdateData(*handle, mem, 0, kPageSize).isOk());
    ASSERT_TRUE(psp.launchFinish(*handle).isOk());

    psp::ReportData rdata{};
    taint::ScopedTaint guard(rdata.data(), rdata.size(),
                             taint::kLaunchSecret);
    ASSERT_TRUE(psp.guestRequestReport(*handle, rdata).isOk());
    ASSERT_GE(taint::violationCount(), 1u);
    bool report_field_hit = false;
    for (const taint::Violation &v : taint::violations()) {
        report_field_hit |= v.sink == taint::Sink::kReportField;
    }
    EXPECT_TRUE(report_field_hit);
}

// ---- Propagation through the stack -------------------------------------

TEST_F(TaintTest, EncryptionDeclassifiesBuffers)
{
    crypto::Aes128Key key{}, tweak{};
    key[0] = 1;
    tweak[0] = 2;
    crypto::XexCipher cipher(key, tweak);
    ByteVec data(32, 0xee);
    taint::mark(data.data(), data.size(), taint::kLaunchSecret);
    cipher.encrypt(data, data, /*spa=*/0);
    // Ciphertext is public by cryptographic assumption.
    EXPECT_EQ(taint::query(data.data(), data.size()), taint::kNone);
}

TEST_F(TaintTest, PageLabelsCarrySecretsThroughGuestMemory)
{
    psp::KeyServer kds;
    psp::Psp psp("taint-chip-3", kds, 17);
    memory::GuestMemory mem(8 * kPageSize, 0, psp.allocateAsid());
    Result<psp::GuestHandle> handle = psp.launchStart(mem, 0);
    ASSERT_TRUE(handle.isOk());
    ASSERT_TRUE(mem.hostWrite(0, ByteVec(kPageSize, 3)).isOk());
    ASSERT_TRUE(psp.launchUpdateData(*handle, mem, 0, kPageSize).isOk());

    // Pre-encrypted launch pages carry plain kGuestData: guestRead of
    // measured kernel content must NOT scatter secret labels around.
    EXPECT_EQ(mem.pageLabel(0), taint::kGuestData);
    Result<ByteVec> kernel = mem.guestRead(0, 64, /*c_bit=*/true);
    ASSERT_TRUE(kernel.isOk());
    EXPECT_EQ(taint::query(kernel->data(), kernel->size()), taint::kNone);

    // A guest write of labelled bytes moves the label into the page
    // shadow; reading it back re-labels the plaintext copy.
    Gpa secret_gpa = 4 * kPageSize;
    claim(mem, secret_gpa, kPageSize);
    {
        ByteVec secret(128, 0x42);
        taint::ScopedTaint guard(secret.data(), secret.size(),
                                 taint::kLaunchSecret);
        ASSERT_TRUE(mem.guestWrite(secret_gpa, secret, true).isOk());
    }
    EXPECT_NE(mem.pageLabel(secret_gpa) & taint::kLaunchSecret,
              taint::kNone);
    Result<ByteVec> back = mem.guestRead(secret_gpa, 128, true);
    ASSERT_TRUE(back.isOk());
    EXPECT_NE(taint::query(back->data(), back->size()) &
                  taint::kLaunchSecret,
              taint::kNone);
    taint::clearRange(back->data(), back->size());

    // The host sees only ciphertext, which carries no byte labels.
    Result<ByteVec> cipher = mem.hostRead(secret_gpa, 128);
    ASSERT_TRUE(cipher.isOk());
    EXPECT_EQ(taint::query(cipher->data(), cipher->size()), taint::kNone);
    EXPECT_EQ(taint::violationCount(), 0u);
}

TEST_F(TaintTest, AttestationFlowIsCleanAndLabelsProvisionedSecret)
{
    psp::KeyServer kds;
    psp::Psp psp("taint-chip-4", kds, 19);
    memory::GuestMemory mem(8 * kPageSize, 0, psp.allocateAsid());
    Result<psp::GuestHandle> handle = psp.launchStart(mem, 0);
    ASSERT_TRUE(handle.isOk());
    ASSERT_TRUE(mem.hostWrite(0, ByteVec(kPageSize, 7)).isOk());
    ASSERT_TRUE(psp.launchUpdateData(*handle, mem, 0, kPageSize).isOk());
    Result<crypto::Sha256Digest> measurement = psp.launchMeasure(*handle);
    ASSERT_TRUE(measurement.isOk());
    ASSERT_TRUE(psp.launchFinish(*handle).isOk());

    attest::GuestOwner owner(kds, *measurement, ByteVec(96, 0x51),
                             /*seed=*/23);
    Gpa secret_dest = 2 * kPageSize;
    claim(mem, secret_dest, kPageSize);
    taint::ScopedMode enforce(taint::Mode::kEnforce);
    Result<guest::AttestationOutcome> outcome = guest::runAttestation(
        psp, *handle, mem, secret_dest, owner, /*seed=*/29);
    ASSERT_TRUE(outcome.isOk()) << outcome.status().toString();

    // The provisioned secret's pages carry the launch-secret label end
    // to end, and the whole flow ran without tripping a single sink
    // under full enforcement.
    EXPECT_NE(mem.pageLabel(secret_dest) & taint::kLaunchSecret,
              taint::kNone);
}

// ---- Enforce mode ------------------------------------------------------

using TaintDeathTest = TaintTest;

TEST_F(TaintDeathTest, EnforceModePanicsOnLeak)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    memory::GuestMemory mem(4 * kPageSize, 0, /*asid=*/1);
    ByteVec secret(16, 0xdd);
    taint::ScopedTaint guard(secret.data(), secret.size(), taint::kVek);
    taint::ScopedMode enforce(taint::Mode::kEnforce);
    EXPECT_DEATH(
        { (void)mem.hostWrite(0, secret); },
        "SECRET bytes .*vek.* reached public sink 'host-write'");
}

// ---- Whole-stack enforcement -------------------------------------------

class TaintStrategyTest : public ::testing::TestWithParam<core::StrategyKind>
{
  protected:
    TaintStrategyTest() : platform_(sim::CostParams::deterministic()) {}
    core::Platform platform_;
};

TEST_P(TaintStrategyTest, BootsCleanUnderEnforcement)
{
    taint::clearViolations();
    taint::ScopedMode enforce(taint::Mode::kEnforce);
    core::LaunchRequest req;
    req.scale = 1.0 / 32.0;
    Result<core::LaunchResult> result =
        core::makeStrategy(GetParam())->launch(platform_, req);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(taint::violationCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, TaintStrategyTest,
    ::testing::Values(core::StrategyKind::kStockFirecracker,
                      core::StrategyKind::kQemuOvmfSev,
                      core::StrategyKind::kSevDirectBoot,
                      core::StrategyKind::kSeveriFastBz,
                      core::StrategyKind::kSeveriFastVmlinux),
    [](const ::testing::TestParamInfo<core::StrategyKind> &info) {
        std::string name = core::strategyName(info.param);
        for (char &c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

} // namespace
} // namespace sevf
