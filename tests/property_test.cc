/**
 * @file
 * Property-based tests: randomized sweeps over the substrates'
 * invariants - codec round-trips on arbitrary data, a shadow-model
 * check of encrypted guest memory, RMP invariants under random
 * operation sequences, PSP-vs-tool measurement equality on random
 * launch plans, DES scheduling laws, and page-table totality.
 */
#include <gtest/gtest.h>

#include <map>

#include "attest/expected_measurement.h"
#include "base/bytes.h"
#include "base/rng.h"
#include "compress/codec.h"
#include "memory/guest_memory.h"
#include "memory/page_table.h"
#include "psp/psp.h"
#include "sim/des.h"
#include "workload/synthetic.h"

namespace sevf {
namespace {

constexpr Spa kSpaBase = 0x100000000ull;

// ----------------------------------------------------- codec round-trip

class CodecFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(CodecFuzz, RoundTripsArbitraryData)
{
    // Random size, random compressibility, random content per seed.
    Rng rng(GetParam());
    u64 size = rng.nextBelow(200000);
    double fraction = rng.nextDouble();
    ByteVec data = workload::compressibleBytes(size, fraction, rng.next());

    for (auto kind :
         {compress::CodecKind::kLz4, compress::CodecKind::kGzipLite}) {
        const compress::Codec &codec = compress::codecFor(kind);
        ByteVec stream = codec.compress(data);
        Result<ByteVec> back = codec.decompress(stream);
        ASSERT_TRUE(back.isOk())
            << codec.name() << " seed=" << GetParam() << " size=" << size;
        EXPECT_EQ(*back, data) << codec.name();
    }
}

TEST_P(CodecFuzz, TruncationNeverCrashesAlwaysFailsOrDiffers)
{
    Rng rng(GetParam() ^ 0x7100);
    ByteVec data =
        workload::compressibleBytes(1000 + rng.nextBelow(50000), 0.3,
                                    rng.next());
    const compress::Codec &lz4 =
        compress::codecFor(compress::CodecKind::kLz4);
    ByteVec stream = lz4.compress(data);
    // Random truncation point (possibly inside the header).
    ByteVec cut(stream.begin(),
                stream.begin() + rng.nextBelow(stream.size()));
    Result<ByteVec> back = lz4.decompress(cut);
    if (back.isOk()) {
        EXPECT_NE(*back, data);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Range<u64>(1, 21));

// ---------------------------------------------- guest memory vs shadow

class MemoryShadowFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(MemoryShadowFuzz, EncryptedMemoryMatchesPlainShadow)
{
    // Apply a random sequence of guest writes to C-bit memory and to a
    // plain shadow buffer; the guest's decrypted view must equal the
    // shadow at every probe, and DRAM must hold exactly the shadow's
    // ciphertext at the end. The write mix hits every guestWrite path:
    // short writes inside one line or straddling a line boundary
    // (partial-line read-modify-write), line-aligned writes (straight
    // through), and arbitrary unaligned ones (both).
    Rng rng(GetParam() ^ 0x5ade);
    constexpr u64 kRegion = 64 * kPageSize;
    memory::GuestMemory mem(kRegion, kSpaBase, 5);
    crypto::Aes128Key key, tweak;
    rng.fill(key);
    rng.fill(tweak);
    mem.attachEncryption(
        std::make_unique<crypto::XexCipher>(key, tweak));
    for (Gpa p = 0; p < kRegion; p += kPageSize) {
        ASSERT_TRUE(mem.rmp().rmpUpdate(mem.spaOf(p), 5, p, true).isOk());
        ASSERT_TRUE(mem.rmp().pvalidate(mem.spaOf(p), 5, p, true).isOk());
    }

    ByteVec shadow(kRegion, 0);
    // Initialize both sides identically (encrypted memory starts as
    // garbage plaintext, the shadow as zero - write everything once).
    ASSERT_TRUE(mem.guestWrite(0, shadow, true).isOk());

    for (int op = 0; op < 200; ++op) {
        u64 off = 0;
        u64 len = 0;
        switch (op % 4) {
          case 0:
            // 1..16 bytes from anywhere in a line: about half of these
            // straddle into the next line.
            off = rng.nextBelow(kRegion / 16 - 1) * 16 + rng.nextBelow(16);
            len = 1 + rng.nextBelow(16);
            break;
          case 1: {
            // Line-aligned offset and length: no partial line at all.
            off = rng.nextBelow(kRegion / 16) * 16;
            u64 lines = std::min<u64>((kRegion - off) / 16, 9000 / 16);
            len = 16 * (1 + rng.nextBelow(lines));
            break;
          }
          default:
            off = rng.nextBelow(kRegion - 1);
            len = 1 + rng.nextBelow(std::min<u64>(kRegion - off, 9000));
            break;
        }
        ByteVec chunk(len);
        rng.fill(chunk);
        ASSERT_TRUE(mem.guestWrite(off, chunk, true).isOk());
        std::copy(chunk.begin(), chunk.end(), shadow.begin() + off);

        // Random probe.
        u64 probe_off = rng.nextBelow(kRegion - 1);
        u64 probe_len =
            1 + rng.nextBelow(std::min<u64>(kRegion - probe_off, 5000));
        Result<ByteVec> got = mem.guestRead(probe_off, probe_len, true);
        ASSERT_TRUE(got.isOk());
        EXPECT_EQ(*got, ByteVec(shadow.begin() + probe_off,
                                shadow.begin() + probe_off + probe_len))
            << "op=" << op << " off=" << probe_off;
    }

    // Full sweep at the end.
    EXPECT_EQ(*mem.guestRead(0, kRegion, true), shadow);
    // The ciphertext itself, not just the round trip: DRAM holds an
    // independent XEX encryption of the shadow at the VM's SPA (which
    // also means the host never sees the plaintext).
    crypto::XexCipher reference(key, tweak);
    ByteVec expected(kRegion);
    reference.encrypt(shadow, expected, kSpaBase);
    EXPECT_EQ(*mem.hostRead(0, kRegion), expected);
    EXPECT_NE(expected, shadow);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryShadowFuzz,
                         ::testing::Range<u64>(1, 9));

// ----------------------------------------------------- RMP invariants

TEST(RmpInvariants, RandomOpSequencesKeepExclusivity)
{
    // Invariant: at all times, a page is writable by the host XOR
    // accessible by its guest (or neither) - never both.
    Rng rng(0x1a2b);
    constexpr u64 kPages = 64;
    memory::Rmp rmp(kSpaBase, kPages);

    for (int op = 0; op < 3000; ++op) {
        Spa spa = kSpaBase + rng.nextBelow(kPages) * kPageSize;
        Gpa gpa = rng.nextBelow(kPages) * kPageSize;
        u32 asid = 1 + static_cast<u32>(rng.nextBelow(3));
        switch (rng.nextBelow(4)) {
          case 0:
            (void)rmp.rmpUpdate(spa, asid, gpa, true);
            break;
          case 1:
            (void)rmp.rmpUpdate(spa, asid, gpa, false);
            break;
          case 2:
            (void)rmp.pvalidate(spa, asid, gpa, true);
            break;
          case 3:
            (void)rmp.pspAssignValidated(spa, asid, gpa, 1);
            break;
        }

        for (u64 page = 0; page < kPages; ++page) {
            Spa s = kSpaBase + page * kPageSize;
            const memory::RmpEntry &e = rmp.entryAt(s);
            bool host_ok = rmp.checkHostWrite(s).isOk();
            bool guest_ok =
                e.assigned &&
                rmp.checkGuestAccess(s, e.asid, e.gpa).isOk();
            EXPECT_FALSE(host_ok && guest_ok) << "page " << page;
            // Validated implies assigned.
            if (e.validated) {
                EXPECT_TRUE(e.assigned);
            }
        }
    }
}

// ------------------------------------------- measurement: tool == PSP

class MeasurementFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(MeasurementFuzz, ExpectedToolAlwaysMatchesPsp)
{
    Rng rng(GetParam() ^ 0xd16e);
    psp::KeyServer ks;
    psp::Psp psp("CHIP-FUZZ-" + std::to_string(GetParam()), ks,
                 GetParam());
    memory::GuestMemory mem(8 * kMiB, kSpaBase, psp.allocateAsid());
    psp::GuestHandle h = *psp.launchStart(mem, 0x30000);

    // Random non-overlapping page-aligned regions of random content.
    std::vector<attest::PreEncryptedRegion> plan;
    Gpa next_gpa = 0;
    int regions = 1 + static_cast<int>(rng.nextBelow(6));
    for (int i = 0; i < regions; ++i) {
        u64 len = 1 + rng.nextBelow(3 * kPageSize);
        ByteVec bytes(len);
        rng.fill(bytes);
        ASSERT_TRUE(mem.hostWrite(next_gpa, bytes).isOk());
        ASSERT_TRUE(psp.launchUpdateData(h, mem, next_gpa, len).isOk());
        plan.push_back({std::string("r").append(std::to_string(i)),
                        next_gpa, std::move(bytes)});
        next_gpa += alignUp(len, kPageSize) + kPageSize;
    }
    // Random number of VMSAs.
    u32 vcpus = 1 + static_cast<u32>(rng.nextBelow(4));
    for (u32 cpu = 0; cpu < vcpus; ++cpu) {
        ASSERT_TRUE(psp.launchUpdateVmsa(h, mem, cpu,
                                         0x400000 + cpu * kPageSize)
                        .isOk());
    }

    attest::VmsaInfo vmsa{vcpus, 0x30000, 0x400000};
    EXPECT_EQ(*psp.launchMeasure(h),
              attest::expectedMeasurement(plan, vmsa));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeasurementFuzz,
                         ::testing::Range<u64>(1, 13));

// ----------------------------------------------------- DES scheduling

class DesFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(DesFuzz, SchedulingLaws)
{
    // Random traces; check: (1) each VM's completion >= its own total,
    // (2) makespan >= total PSP demand, (3) makespan <= sum of all
    // trace totals (single resource cannot be worse than full serial),
    // (4) psp_wait is non-negative and consistent with completion.
    Rng rng(GetParam() ^ 0xde5);
    int n = 2 + static_cast<int>(rng.nextBelow(12));
    std::vector<sim::BootTrace> traces;
    sim::Duration psp_demand;
    sim::Duration serial_total;
    for (int v = 0; v < n; ++v) {
        sim::BootTrace t;
        int steps = 1 + static_cast<int>(rng.nextBelow(6));
        for (int s = 0; s < steps; ++s) {
            sim::Duration d =
                sim::Duration::micros(1 + static_cast<i64>(
                                          rng.nextBelow(20000)));
            bool is_psp = rng.nextBelow(2) == 0;
            t.add(is_psp ? sim::StepKind::kPsp : sim::StepKind::kCpu, d,
                  sim::phase::kVmm, "s");
            if (is_psp) {
                psp_demand += d;
            }
        }
        serial_total += t.total();
        traces.push_back(std::move(t));
    }

    sim::ReplayResult r = sim::replayConcurrent(traces);
    sim::Duration makespan = r.maxCompletion();
    for (int v = 0; v < n; ++v) {
        EXPECT_GE(r.completion[v], traces[v].total()) << "vm " << v;
        EXPECT_GE(r.psp_wait[v], sim::Duration::zero());
        EXPECT_EQ(r.completion[v],
                  traces[v].total() + r.psp_wait[v])
            << "completion decomposes into own work + psp queueing";
    }
    EXPECT_GE(makespan, psp_demand);
    EXPECT_LE(makespan, serial_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DesFuzz, ::testing::Range<u64>(1, 17));

// --------------------------------------------------- page-table totality

class PageTableFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(PageTableFuzz, IdentityMapIsTotalAndExact)
{
    Rng rng(GetParam() ^ 0x9a6e);
    u64 map_bytes =
        alignUp(kHugePageSize + rng.nextBelow(3 * kGiB), kHugePageSize);
    memory::PageTableConfig cfg;
    cfg.root_gpa = 0;
    cfg.map_bytes = map_bytes;
    cfg.set_c_bit = rng.nextBelow(2) == 0;
    Result<ByteVec> tables = memory::buildIdentityTables(cfg);
    ASSERT_TRUE(tables.isOk());
    const ByteVec &t = *tables;
    memory::PageTableWalker walker(
        0, [&t](u64 pa) -> Result<u64> {
            if (pa + 8 > t.size()) {
                return errNotFound("outside tables");
            }
            return loadLe<u64>(t.data() + pa);
        });

    for (int probe = 0; probe < 200; ++probe) {
        u64 va = rng.nextBelow(map_bytes);
        Result<memory::WalkResult> w = walker.walk(va);
        ASSERT_TRUE(w.isOk()) << "va=" << va;
        EXPECT_EQ(w->pa, va);
        EXPECT_EQ(w->c_bit, cfg.set_c_bit);
    }
    // Just past the end of the map: never resolves.
    u64 beyond = alignUp(map_bytes, kGiB) + rng.nextBelow(kGiB);
    EXPECT_FALSE(walker.walk(beyond).isOk());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableFuzz,
                         ::testing::Range<u64>(1, 9));

} // namespace
} // namespace sevf
