/**
 * @file
 * Memory substrate tests: RMP semantics (ownership, pvalidate, #VC on
 * remap), encrypted guest memory through the C-bit, PSP in-place
 * pre-encryption, and page-table build/walk including the C-bit.
 */
#include <gtest/gtest.h>

#include <memory>

#include "base/bytes.h"
#include "base/rng.h"
#include "crypto/xex.h"
#include "memory/guest_memory.h"
#include "memory/page_table.h"
#include "memory/rmp.h"

namespace sevf::memory {
namespace {

constexpr u32 kAsid = 7;
constexpr Spa kSpaBase = 0x100000000ull; // 4 GiB host offset

std::unique_ptr<crypto::XexCipher>
makeEngine(u64 seed)
{
    Rng rng(seed);
    crypto::Aes128Key key, tweak;
    rng.fill(key);
    rng.fill(tweak);
    return std::make_unique<crypto::XexCipher>(key, tweak);
}

// ---------------------------------------------------------------- RMP

class RmpTest : public ::testing::Test
{
  protected:
    RmpTest() : rmp_(kSpaBase, 16) {}
    Rmp rmp_;
};

TEST_F(RmpTest, FreshPagesAreHypervisorOwned)
{
    const RmpEntry &e = rmp_.entryAt(kSpaBase);
    EXPECT_FALSE(e.assigned);
    EXPECT_FALSE(e.validated);
    EXPECT_TRUE(rmp_.checkHostWrite(kSpaBase).isOk());
    EXPECT_FALSE(rmp_.checkGuestAccess(kSpaBase, kAsid, 0).isOk());
}

TEST_F(RmpTest, AssignThenPvalidateEnablesGuestAccess)
{
    ASSERT_TRUE(rmp_.rmpUpdate(kSpaBase, kAsid, 0, true).isOk());
    // Assigned but not yet validated: guest access faults.
    EXPECT_FALSE(rmp_.checkGuestAccess(kSpaBase, kAsid, 0).isOk());
    ASSERT_TRUE(rmp_.pvalidate(kSpaBase, kAsid, 0, true).isOk());
    EXPECT_TRUE(rmp_.checkGuestAccess(kSpaBase, kAsid, 0).isOk());
    // And the host is now locked out.
    EXPECT_FALSE(rmp_.checkHostWrite(kSpaBase).isOk());
}

TEST_F(RmpTest, PvalidateRequiresOwnership)
{
    ASSERT_TRUE(rmp_.rmpUpdate(kSpaBase, kAsid, 0, true).isOk());
    EXPECT_FALSE(rmp_.pvalidate(kSpaBase, kAsid + 1, 0, true).isOk());
    EXPECT_FALSE(rmp_.pvalidate(kSpaBase, kAsid, kPageSize, true).isOk());
}

TEST_F(RmpTest, RemapClearsValidated)
{
    // The replay/remap attack from §2.2: hypervisor changes a mapping,
    // hardware clears the valid bit, next guest access takes #VC.
    ASSERT_TRUE(rmp_.rmpUpdate(kSpaBase, kAsid, 0, true).isOk());
    ASSERT_TRUE(rmp_.pvalidate(kSpaBase, kAsid, 0, true).isOk());
    ASSERT_TRUE(rmp_.rmpUpdate(kSpaBase, kAsid, 2 * kPageSize, true).isOk());
    Status vc = rmp_.checkGuestAccess(kSpaBase, kAsid, 2 * kPageSize);
    EXPECT_FALSE(vc.isOk());
    EXPECT_EQ(vc.code(), ErrorCode::kAccessDenied);
}

TEST_F(RmpTest, GpaAliasDetected)
{
    ASSERT_TRUE(rmp_.rmpUpdate(kSpaBase, kAsid, 0, true).isOk());
    ASSERT_TRUE(rmp_.pvalidate(kSpaBase, kAsid, 0, true).isOk());
    // Guest believes it is touching GPA 0x3000 but host routed it here.
    EXPECT_FALSE(rmp_.checkGuestAccess(kSpaBase, kAsid, 0x3000).isOk());
}

TEST_F(RmpTest, ImmutablePagesRejectUpdates)
{
    ASSERT_TRUE(rmp_.setImmutable(kSpaBase).isOk());
    EXPECT_FALSE(rmp_.rmpUpdate(kSpaBase, kAsid, 0, true).isOk());
    EXPECT_FALSE(rmp_.checkHostWrite(kSpaBase).isOk());
}

TEST_F(RmpTest, OutOfRangeSpaRejected)
{
    EXPECT_FALSE(rmp_.rmpUpdate(kSpaBase - kPageSize, kAsid, 0, true).isOk());
    EXPECT_FALSE(
        rmp_.rmpUpdate(kSpaBase + 16 * kPageSize, kAsid, 0, true).isOk());
}

TEST_F(RmpTest, ValidatedCount)
{
    EXPECT_EQ(rmp_.validatedCount(), 0u);
    ASSERT_TRUE(rmp_.pspAssignValidated(kSpaBase, kAsid, 0, 1).isOk());
    ASSERT_TRUE(
        rmp_.pspAssignValidated(kSpaBase + kPageSize, kAsid, kPageSize, 2)
            .isOk());
    EXPECT_EQ(rmp_.validatedCount(), 3u);
}

TEST_F(RmpTest, AssignValidatedRangeSetsEveryEntry)
{
    ASSERT_TRUE(rmp_.pspAssignValidated(kSpaBase + 4 * kPageSize, kAsid,
                                        0x10000, 12)
                    .isOk());
    for (u64 i = 0; i < 16; ++i) {
        const RmpEntry &e = rmp_.entryAt(kSpaBase + i * kPageSize);
        EXPECT_EQ(e.assigned, i >= 4) << i;
        EXPECT_EQ(e.validated, i >= 4) << i;
        if (i >= 4) {
            EXPECT_EQ(e.asid, kAsid);
            EXPECT_EQ(e.gpa, 0x10000 + (i - 4) * kPageSize);
            EXPECT_TRUE(rmp_.checkGuestAccess(kSpaBase + i * kPageSize,
                                              kAsid, e.gpa)
                            .isOk());
        }
    }
    // An empty range ending at the last entry is fine.
    EXPECT_TRUE(
        rmp_.pspAssignValidated(kSpaBase + 16 * kPageSize, kAsid, 0, 0)
            .isOk());
}

TEST_F(RmpTest, BadAssignValidatedRangeChangesNoEntry)
{
    struct Case {
        const char *what;
        Spa spa;
        Gpa gpa;
        u64 pages;
    };
    const Case kCases[] = {
        {"past the end", kSpaBase + 10 * kPageSize, 0, 7},
        {"starts past the end", kSpaBase + 17 * kPageSize, 0, 0},
        {"below the base", kSpaBase - kPageSize, 0, 2},
        {"page count wraps", kSpaBase + kPageSize, 0, ~u64{0}},
        {"unaligned spa", kSpaBase + 8, 0, 1},
        {"unaligned gpa", kSpaBase, 8, 1},
    };
    for (const Case &c : kCases) {
        SCOPED_TRACE(c.what);
        Status st = rmp_.pspAssignValidated(c.spa, kAsid, c.gpa, c.pages);
        EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
        EXPECT_EQ(rmp_.validatedCount(), 0u);
        for (u64 i = 0; i < 16; ++i) {
            EXPECT_FALSE(rmp_.entryAt(kSpaBase + i * kPageSize).assigned);
        }
    }
}

// ------------------------------------------------------- guest memory

class GuestMemoryTest : public ::testing::Test
{
  protected:
    GuestMemoryTest() : mem_(1 * kMiB, kSpaBase, kAsid) {}

    void
    enableSev()
    {
        mem_.attachEncryption(makeEngine(1234));
    }

    /** Assign+validate the page range so the guest may use it privately. */
    void
    claimPages(Gpa gpa, u64 len)
    {
        for (Gpa p = alignDown(gpa, kPageSize); p < gpa + len;
             p += kPageSize) {
            ASSERT_TRUE(
                mem_.rmp().rmpUpdate(mem_.spaOf(p), kAsid, p, true).isOk());
            ASSERT_TRUE(
                mem_.rmp().pvalidate(mem_.spaOf(p), kAsid, p, true).isOk());
        }
    }

    GuestMemory mem_;
};

TEST_F(GuestMemoryTest, NonSevReadWrite)
{
    ByteVec data = toBytes("plain guest data");
    ASSERT_TRUE(mem_.hostWrite(0x1000, data).isOk());
    Result<ByteVec> r = mem_.guestRead(0x1000, data.size(), false);
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(*r, data);
}

TEST_F(GuestMemoryTest, BoundsChecked)
{
    ByteVec data(16, 1);
    EXPECT_FALSE(mem_.hostWrite(mem_.size() - 8, data).isOk());
    EXPECT_FALSE(mem_.hostRead(mem_.size(), 1).isOk());
    EXPECT_TRUE(mem_.hostWrite(mem_.size() - 16, data).isOk());
}

TEST_F(GuestMemoryTest, EncryptedWriteProducesCiphertextInDram)
{
    enableSev();
    claimPages(0x2000, kPageSize);
    ByteVec secret = toBytes("attestation private key material!");
    ASSERT_TRUE(mem_.guestWrite(0x2000, secret, true).isOk());

    // Host sees ciphertext.
    Result<ByteVec> host_view = mem_.hostRead(0x2000, secret.size());
    ASSERT_TRUE(host_view.isOk());
    EXPECT_NE(*host_view, secret);

    // Guest sees plaintext.
    Result<ByteVec> guest_view = mem_.guestRead(0x2000, secret.size(), true);
    ASSERT_TRUE(guest_view.isOk());
    EXPECT_EQ(*guest_view, secret);
}

TEST_F(GuestMemoryTest, UnalignedEncryptedWritesPreserveNeighbours)
{
    enableSev();
    claimPages(0x3000, kPageSize);
    ByteVec base(64, 0xaa);
    ASSERT_TRUE(mem_.guestWrite(0x3000, base, true).isOk());
    // Overwrite 5 bytes in the middle of a 16-byte line.
    ByteVec patch = toBytes("HELLO");
    ASSERT_TRUE(mem_.guestWrite(0x3007, patch, true).isOk());

    Result<ByteVec> r = mem_.guestRead(0x3000, 64, true);
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ((*r)[6], 0xaa);
    EXPECT_EQ((*r)[7], 'H');
    EXPECT_EQ((*r)[11], 'O');
    EXPECT_EQ((*r)[12], 0xaa);
}

TEST_F(GuestMemoryTest, HostCannotWriteGuestOwnedPage)
{
    enableSev();
    claimPages(0x4000, kPageSize);
    Status s = mem_.hostWrite(0x4000, toBytes("evil"));
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::kAccessDenied);
}

TEST_F(GuestMemoryTest, GuestAccessToUnvalidatedPageFaults)
{
    enableSev();
    Status s = mem_.guestWrite(0x5000, toBytes("data"), true);
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::kAccessDenied);
}

TEST_F(GuestMemoryTest, SharedAccessNeedsNoValidation)
{
    enableSev();
    // C-bit clear: shared page, used for measured-direct-boot staging.
    ByteVec data = toBytes("plaintext kernel bytes");
    ASSERT_TRUE(mem_.hostWrite(0x6000, data).isOk());
    Result<ByteVec> r = mem_.guestRead(0x6000, data.size(), false);
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(*r, data);
}

TEST_F(GuestMemoryTest, PspEncryptInPlaceRoundTrips)
{
    enableSev();
    ByteVec verifier = toBytes("boot verifier code ...");
    verifier.resize(kPageSize, 0);
    ASSERT_TRUE(mem_.hostWrite(0x8000, verifier).isOk());
    ASSERT_TRUE(mem_.pspEncryptInPlace(0x8000, kPageSize).isOk());

    // DRAM no longer shows the plaintext.
    EXPECT_NE(*mem_.hostRead(0x8000, kPageSize), verifier);
    // The guest can read it back through the C-bit without pvalidating:
    // LAUNCH_UPDATE pages arrive validated.
    EXPECT_EQ(*mem_.guestRead(0x8000, kPageSize, true), verifier);
    // And the host is locked out.
    EXPECT_FALSE(mem_.hostWrite(0x8000, toBytes("evil")).isOk());
}

TEST_F(GuestMemoryTest, PspEncryptRequiresAlignmentAndKey)
{
    EXPECT_EQ(mem_.pspEncryptInPlace(0x8000, kPageSize).code(),
              ErrorCode::kInvalidState);
    enableSev();
    EXPECT_EQ(mem_.pspEncryptInPlace(0x8001, 16).code(),
              ErrorCode::kInvalidArgument);
}

TEST_F(GuestMemoryTest, SamePlaintextDifferentGpaDifferentCiphertext)
{
    enableSev();
    claimPages(0x10000, 2 * kPageSize);
    ByteVec page(kPageSize, 0x61);
    ASSERT_TRUE(mem_.guestWrite(0x10000, page, true).isOk());
    ASSERT_TRUE(mem_.guestWrite(0x11000, page, true).isOk());
    EXPECT_NE(*mem_.hostRead(0x10000, kPageSize),
              *mem_.hostRead(0x11000, kPageSize));
}

TEST_F(GuestMemoryTest, DistinctVmsDistinctCiphertexts)
{
    // Even with the SAME key material, distinct SPA bases make dedup
    // impossible (§7.1); with distinct keys it is doubly so.
    GuestMemory a(64 * kPageSize, 0x100000000ull, 1);
    GuestMemory b(64 * kPageSize, 0x200000000ull, 2);
    a.attachEncryption(makeEngine(42));
    b.attachEncryption(makeEngine(42));
    ByteVec page(kPageSize, 0x5a);
    ASSERT_TRUE(a.hostWrite(0, page).isOk());
    ASSERT_TRUE(b.hostWrite(0, page).isOk());
    ASSERT_TRUE(a.pspEncryptInPlace(0, kPageSize).isOk());
    ASSERT_TRUE(b.pspEncryptInPlace(0, kPageSize).isOk());
    EXPECT_NE(*a.hostRead(0, kPageSize), *b.hostRead(0, kPageSize));
}

TEST_F(GuestMemoryTest, HostWriteUncheckedCorruptsButGuestSeesGarbage)
{
    enableSev();
    claimPages(0x12000, kPageSize);
    ByteVec data = toBytes("sensitive sixteen");
    ASSERT_TRUE(mem_.guestWrite(0x12000, data, true).isOk());
    // Physical attacker flips DRAM bytes; guest read decrypts garbage,
    // not attacker-controlled plaintext.
    mem_.hostWriteUnchecked(0x12000, ByteVec(16, 0));
    Result<ByteVec> r = mem_.guestRead(0x12000, 16, true);
    ASSERT_TRUE(r.isOk());
    EXPECT_NE(ByteVec(r->begin(), r->begin() + 16),
              ByteVec(data.begin(), data.begin() + 16));
}


TEST_F(GuestMemoryTest, SingleLinePartialEncryptedWritePreservesTail)
{
    // Regression: aligned start + partial end within ONE 16-byte line
    // must still read-modify-write the stale plaintext tail.
    enableSev();
    claimPages(0x3000, kPageSize);
    ByteVec base(32, 0xbb);
    ASSERT_TRUE(mem_.guestWrite(0x3000, base, true).isOk());
    ByteVec patch = toBytes("abc");
    ASSERT_TRUE(mem_.guestWrite(0x3000, patch, true).isOk());
    Result<ByteVec> r = mem_.guestRead(0x3000, 32, true);
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ((*r)[0], 'a');
    EXPECT_EQ((*r)[3], 0xbb);
    EXPECT_EQ((*r)[15], 0xbb);
    EXPECT_EQ((*r)[31], 0xbb);
}

TEST_F(GuestMemoryTest, PartialStartAlignedEndWithinOneLine)
{
    enableSev();
    claimPages(0x3000, kPageSize);
    ByteVec base(32, 0xcc);
    ASSERT_TRUE(mem_.guestWrite(0x3000, base, true).isOk());
    ByteVec patch = toBytes("zz");
    ASSERT_TRUE(mem_.guestWrite(0x300e, patch, true).isOk());
    Result<ByteVec> r = mem_.guestRead(0x3000, 32, true);
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ((*r)[13], 0xcc);
    EXPECT_EQ((*r)[14], 'z');
    EXPECT_EQ((*r)[15], 'z');
    EXPECT_EQ((*r)[16], 0xcc);
}


// ------------------------------------------------------- SEV modes

TEST(SevModes, BaseSevEncryptsWithoutIntegrity)
{
    // Base SEV: host writes to guest pages are NOT blocked (no RMP),
    // but the data is still ciphertext to the host.
    GuestMemory mem(64 * kPageSize, kSpaBase, 3, SevMode::kSev);
    mem.attachEncryption(makeEngine(9));
    EXPECT_FALSE(mem.integrityEnforced());
    EXPECT_EQ(mem.sevMode(), SevMode::kSev);

    ByteVec secret = toBytes("sixteen byte sec");
    // No pvalidate required pre-SNP.
    ASSERT_TRUE(mem.guestWrite(0x2000, secret, true).isOk());
    EXPECT_EQ(*mem.guestRead(0x2000, secret.size(), true), secret);
    EXPECT_NE(*mem.hostRead(0x2000, secret.size()), secret);

    // The host CAN scribble over the page (corruption, not disclosure).
    EXPECT_TRUE(mem.hostWrite(0x2000, ByteVec(16, 0)).isOk());
    ByteVec after = *mem.guestRead(0x2000, 16, true);
    EXPECT_NE(after, ByteVec(secret.begin(), secret.begin() + 16));
}

TEST(SevModes, SnpBlocksWhatSevAllows)
{
    GuestMemory sev(64 * kPageSize, kSpaBase, 3, SevMode::kSev);
    GuestMemory snp(64 * kPageSize, kSpaBase, 4, SevMode::kSevSnp);
    sev.attachEncryption(makeEngine(10));
    snp.attachEncryption(makeEngine(10));

    ByteVec page(kPageSize, 0x77);
    ASSERT_TRUE(sev.hostWrite(0x3000, page).isOk());
    ASSERT_TRUE(snp.hostWrite(0x3000, page).isOk());
    ASSERT_TRUE(sev.pspEncryptInPlace(0x3000, kPageSize).isOk());
    ASSERT_TRUE(snp.pspEncryptInPlace(0x3000, kPageSize).isOk());

    // SNP locks the page against the host; base SEV does not.
    EXPECT_TRUE(sev.hostWrite(0x3000, ByteVec(16, 0)).isOk());
    EXPECT_FALSE(snp.hostWrite(0x3000, ByteVec(16, 0)).isOk());
}

TEST(SevModes, AsidZeroForcesNone)
{
    GuestMemory mem(16 * kPageSize, kSpaBase, 0, SevMode::kSevSnp);
    EXPECT_EQ(mem.sevMode(), SevMode::kNone);
    EXPECT_FALSE(mem.integrityEnforced());
}

TEST(SevModes, Names)
{
    EXPECT_STREQ(sevModeName(SevMode::kSev), "sev");
    EXPECT_STREQ(sevModeName(SevMode::kSevEs), "sev-es");
    EXPECT_STREQ(sevModeName(SevMode::kSevSnp), "sev-snp");
    EXPECT_TRUE(hasEncryptedState(SevMode::kSevEs));
    EXPECT_FALSE(hasEncryptedState(SevMode::kSev));
    EXPECT_TRUE(hasIntegrity(SevMode::kSevSnp));
    EXPECT_FALSE(hasIntegrity(SevMode::kSevEs));
}

// ------------------------------------------------------- page tables

class PageTableTest : public ::testing::Test
{
  protected:
    /** Builds tables in a raw buffer and returns a walker over it. */
    PageTableWalker
    makeWalker(const ByteVec &tables, Gpa root)
    {
        return PageTableWalker(
            root, [&tables, root](u64 pa) -> Result<u64> {
                if (pa < root || pa + 8 > root + tables.size()) {
                    return errNotFound("entry outside table buffer");
                }
                return loadLe<u64>(tables.data() + (pa - root));
            });
    }
};

TEST_F(PageTableTest, SizeFormula)
{
    EXPECT_EQ(identityTableSize(256 * kMiB), 3 * kPageSize);
    EXPECT_EQ(identityTableSize(1 * kGiB), 3 * kPageSize);
    EXPECT_EQ(identityTableSize(1 * kGiB + 1), 4 * kPageSize);
    EXPECT_EQ(identityTableSize(4 * kGiB), 6 * kPageSize);
}

TEST_F(PageTableTest, IdentityWalk)
{
    PageTableConfig cfg;
    cfg.root_gpa = 0x200000; // 2 MiB, arbitrary aligned spot
    cfg.map_bytes = 256 * kMiB;
    Result<ByteVec> tables = buildIdentityTables(cfg);
    ASSERT_TRUE(tables.isOk());
    PageTableWalker walker = makeWalker(*tables, cfg.root_gpa);

    for (u64 va : {u64{0}, u64{0x1234}, 2 * kMiB + 5, 255 * kMiB}) {
        Result<WalkResult> w = walker.walk(va);
        ASSERT_TRUE(w.isOk()) << "va=" << va;
        EXPECT_EQ(w->pa, va);
        EXPECT_FALSE(w->c_bit);
        EXPECT_TRUE(w->writable);
        EXPECT_EQ(w->page_size, kHugePageSize);
    }
}

TEST_F(PageTableTest, CBitPropagates)
{
    PageTableConfig cfg;
    cfg.root_gpa = 0;
    cfg.map_bytes = 64 * kMiB;
    cfg.set_c_bit = true;
    Result<ByteVec> tables = buildIdentityTables(cfg);
    ASSERT_TRUE(tables.isOk());
    PageTableWalker walker = makeWalker(*tables, 0);

    Result<WalkResult> w = walker.walk(10 * kMiB + 123);
    ASSERT_TRUE(w.isOk());
    EXPECT_TRUE(w->c_bit);
    EXPECT_EQ(w->pa, 10 * kMiB + 123);
}

TEST_F(PageTableTest, UnmappedAddressFaults)
{
    PageTableConfig cfg;
    cfg.root_gpa = 0;
    cfg.map_bytes = 256 * kMiB;
    Result<ByteVec> tables = buildIdentityTables(cfg);
    ASSERT_TRUE(tables.isOk());
    PageTableWalker walker = makeWalker(*tables, 0);

    // Beyond the mapped range within the same PD: non-present entry.
    EXPECT_FALSE(walker.walk(512 * kMiB).isOk());
    // A different PML4 slot entirely.
    EXPECT_FALSE(walker.walk(1ull << 40).isOk());
}

TEST_F(PageTableTest, RejectsBadConfig)
{
    PageTableConfig cfg;
    cfg.map_bytes = 0;
    EXPECT_FALSE(buildIdentityTables(cfg).isOk());
    cfg.map_bytes = kMiB;
    cfg.root_gpa = 123; // unaligned
    EXPECT_FALSE(buildIdentityTables(cfg).isOk());
    cfg.root_gpa = 0;
    cfg.map_bytes = 513ull * kGiB;
    EXPECT_FALSE(buildIdentityTables(cfg).isOk());
}

TEST_F(PageTableTest, WalkerOverEncryptedGuestMemory)
{
    // End-to-end: tables generated in C-bit memory by the "verifier",
    // then walked through decrypting reads - the real boot layout.
    GuestMemory mem(4 * kMiB, kSpaBase, kAsid);
    mem.attachEncryption(makeEngine(5));

    PageTableConfig cfg;
    cfg.root_gpa = 0x1000;
    cfg.map_bytes = 2 * kMiB;
    cfg.set_c_bit = true;
    Result<ByteVec> tables = buildIdentityTables(cfg);
    ASSERT_TRUE(tables.isOk());

    for (Gpa p = cfg.root_gpa; p < cfg.root_gpa + tables->size();
         p += kPageSize) {
        ASSERT_TRUE(mem.rmp().rmpUpdate(mem.spaOf(p), kAsid, p, true).isOk());
        ASSERT_TRUE(mem.rmp().pvalidate(mem.spaOf(p), kAsid, p, true).isOk());
    }
    ASSERT_TRUE(mem.guestWrite(cfg.root_gpa, *tables, true).isOk());

    PageTableWalker walker(
        cfg.root_gpa, [&mem](u64 pa) -> Result<u64> {
            Result<ByteVec> bytes = mem.guestRead(pa, 8, true);
            if (!bytes.isOk()) {
                return bytes.status();
            }
            return loadLe<u64>(bytes->data());
        });
    Result<WalkResult> w = walker.walk(0x123456);
    ASSERT_TRUE(w.isOk()) << w.status().toString();
    EXPECT_EQ(w->pa, 0x123456u);
    EXPECT_TRUE(w->c_bit);
}

} // namespace
} // namespace sevf::memory
