/**
 * @file
 * The FTL's crash-consistency machinery: the CRC-guarded OOB codec,
 * clean-shutdown remounts that rebuild the map byte-for-byte, torn
 * pages losing mount-time seq arbitration to the last durable copy,
 * grown-defect tables recovered from the OOB journal alone, static
 * wear levelling bounding the erase-count spread, write-buffer ack
 * semantics across a power cut, and deterministic remounts of torn
 * cells on a multi-channel device.
 *
 * Runs in its own binary (ctest label `ftl`): the grown-defect test
 * arms the default context's fault engine.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "campaign/rig.hh"
#include "ftl/ftl.hh"
#include "ftl/oob.hh"
#include "obs/sim_context.hh"
#include "ssd/ssd.hh"

using namespace babol;
using namespace babol::core;

namespace {

// ---------------------------------------------------------------------
// OOB codec
// ---------------------------------------------------------------------

TEST(OobCodec, RoundTripSurvivesTwoCorruptCopies)
{
    ftl::OobRecord rec;
    rec.lpn = 0x1122334455ull;
    rec.seq = 987654321ull;
    rec.eraseCount = 42;
    rec.defectEntry = 7;
    rec.state = ftl::OobState::GcMove;

    const std::uint32_t oob_bytes =
        ftl::kOobCopies * ftl::kOobRecordBytes;
    std::vector<std::uint8_t> tail = ftl::encodeOob(rec, oob_bytes);
    ASSERT_EQ(tail.size(), oob_bytes);

    auto check = [&](const std::vector<std::uint8_t> &bytes) {
        auto got = ftl::decodeOob(bytes);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->lpn, rec.lpn);
        EXPECT_EQ(got->seq, rec.seq);
        EXPECT_EQ(got->eraseCount, rec.eraseCount);
        EXPECT_EQ(got->defectEntry, rec.defectEntry);
        EXPECT_EQ(got->state, rec.state);
    };
    check(tail);

    // Raw bit damage in two of the three copies: still decodes.
    std::vector<std::uint8_t> damaged = tail;
    damaged[3] ^= 0x40;                          // copy 0
    damaged[ftl::kOobRecordBytes + 11] ^= 0x01;  // copy 1
    check(damaged);

    // All three damaged = a torn program: no copy survives.
    damaged[2 * ftl::kOobRecordBytes + 5] ^= 0x80;
    EXPECT_FALSE(ftl::decodeOob(damaged).has_value());
    EXPECT_FALSE(ftl::oobErased(damaged));

    // All-FF is the distinct "never programmed" sentinel.
    std::vector<std::uint8_t> blank(oob_bytes, 0xFF);
    EXPECT_FALSE(ftl::decodeOob(blank).has_value());
    EXPECT_TRUE(ftl::oobErased(blank));
}

// ---------------------------------------------------------------------
// Single-channel recovery: the two-chip campaign rig, whose stamped
// pages let a remount be checked for content, not just mapping shape
// ---------------------------------------------------------------------

using campaign::Rig;

TEST(FtlRecovery, CleanShutdownRemountRestoresMapAndData)
{
    Rig rig(2);
    // Twelve logical pages, four of them overwritten so stale copies
    // with older seqs are sitting on flash waiting to confuse a scan.
    for (std::uint64_t lpn = 0; lpn < 12; ++lpn)
        ASSERT_TRUE(rig.write(lpn, 1));
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn)
        ASSERT_TRUE(rig.write(lpn, 2));

    Rig boot2(2);
    rig.transplantInto(boot2);
    ASSERT_TRUE(boot2.mount());

    EXPECT_EQ(boot2.ftl.mountTornPages(), 0u);
    EXPECT_GT(boot2.ftl.mountPagesScanned(), 0u);
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn)
        EXPECT_TRUE(boot2.readsBackAs(lpn, 2)) << "lpn " << lpn;
    for (std::uint64_t lpn = 4; lpn < 12; ++lpn)
        EXPECT_TRUE(boot2.readsBackAs(lpn, 1)) << "lpn " << lpn;
    for (std::uint64_t lpn = 12; lpn < boot2.ftl.logicalPages(); ++lpn)
        EXPECT_FALSE(boot2.ftl.isMapped(lpn)) << "lpn " << lpn;
}

TEST(FtlRecovery, TornProgramLosesSeqArbitrationToLastDurableCopy)
{
    Rig rig(2);
    ASSERT_TRUE(rig.write(3, 1));
    ASSERT_TRUE(rig.write(3, 2));

    // Launch generation 3 and cut power mid-program: tProg on this
    // part is 700 us, so 300 us after the issue the program is in
    // flight and the power cut tears it.
    rig.stage(3, 3);
    bool acked = false;
    rig.ftl.writePage(3, campaign::kHostBase, [&](bool) { acked = true; });
    // run(limit) stops at the window edge — a raw step() loop would
    // overshoot into the program-completion event and commit the page.
    rig.eq.run(rig.eq.now() + ticks::fromUs(300));
    ASSERT_FALSE(acked) << "the cut must land before the ack";
    rig.powerCut();

    Rig boot2(2);
    rig.transplantInto(boot2);
    ASSERT_TRUE(boot2.mount());

    // The torn generation-3 page has no valid OOB copy; arbitration
    // falls back to the youngest durable seq — generation 2, intact.
    EXPECT_GE(boot2.ftl.mountTornPages(), 1u);
    EXPECT_TRUE(boot2.ftl.isMapped(3));
    EXPECT_TRUE(boot2.readsBackAs(3, 2));
}

TEST(FtlRecovery, GrownDefectTableRebuiltFromOobJournalAlone)
{
    fault::FaultPlan plan;
    plan.seed = 23;
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::ProgFail;
    spec.nth = 4;
    plan.faults.push_back(spec);
    fault::FaultEngine &faults = SimContext::processDefault().faults;
    faults.arm(plan);

    Rig rig(2);
    for (std::uint64_t lpn = 0; lpn < 10; ++lpn)
        ASSERT_TRUE(rig.write(lpn, 1));
    std::vector<ftl::GrownDefect> table = rig.ftl.exportGrownDefects();
    ASSERT_FALSE(table.empty());
    faults.disarm();

    // The next boot has no side channel: the retirement must come back
    // from the OOB journal entry that rode a later program.
    Rig boot2(2);
    rig.transplantInto(boot2);
    ASSERT_TRUE(boot2.mount());

    std::vector<ftl::GrownDefect> after = boot2.ftl.exportGrownDefects();
    ASSERT_EQ(after.size(), table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(after[i].chip, table[i].chip);
        EXPECT_EQ(after[i].block, table[i].block);
    }

    // The recovered table keeps the bad block out of allocation: heavy
    // follow-up traffic never trips over it again.
    for (std::uint64_t lpn = 0; lpn < 10; ++lpn)
        ASSERT_TRUE(boot2.write(lpn, 2));
    EXPECT_EQ(boot2.ftl.blocksRetired(), 0u);
    EXPECT_EQ(boot2.ftl.exportGrownDefects().size(), table.size());
}

TEST(FtlRecovery, StaticWearLevellingBoundsTheSpread)
{
    ftl::FtlConfig cfg;
    cfg.blocksPerChip = 8;
    cfg.overprovision = 0.5;
    cfg.wearSpreadThreshold = 4;
    Rig rig(1, cfg);

    // A pathologically skewed workload: 80% of writes hammer the
    // first quarter of the address space, the rest sits cold.
    const std::uint64_t extent = rig.ftl.logicalPages();
    Rng rng(77);
    for (std::uint64_t lpn = 0; lpn < extent; ++lpn)
        ASSERT_TRUE(rig.write(lpn, 1));
    for (int i = 0; i < 3000; ++i) {
        std::uint64_t lpn = rng.chance(0.8)
                                ? rng.uniform(0, extent / 4 - 1)
                                : rng.uniform(0, extent - 1);
        ASSERT_TRUE(rig.write(lpn, 2));
    }

    EXPECT_GT(rig.ftl.wearLevelRuns(), 0u)
        << "the skew must trigger cold-data migration";
    EXPECT_GT(rig.ftl.wearLevelPageMoves(), 0u);
    EXPECT_LE(rig.ftl.wearSpread(0), 2 * cfg.wearSpreadThreshold)
        << "static WL failed to bound the erase-count spread";
}

TEST(FtlRecovery, BufferedUnackedWritesMayVanishAckedOnesNever)
{
    ftl::FtlConfig cfg = Rig::smallFtl();
    cfg.writeBufferPages = 4;
    cfg.writeBufferFlushUs = 200;
    Rig rig(2, cfg);

    // Five buffered writes, one an overwrite: the overwrite coalesces
    // in DRAM, the fill forces a flush, and every ack arrives only
    // after its program commits.
    int acks = 0;
    std::vector<std::uint64_t> lpns = {0, 0, 1, 2, 3};
    for (std::uint64_t lpn : lpns) {
        rig.stage(lpn, lpn == 0 ? 2 : 1);
        rig.ftl.writePage(lpn, campaign::kHostBase, [&](bool ok) {
            EXPECT_TRUE(ok);
            ++acks;
        });
    }
    rig.eq.run();
    EXPECT_EQ(acks, 5);
    EXPECT_GE(rig.ftl.writeBufferHits(), 1u) << "overwrite must coalesce";
    EXPECT_GE(rig.ftl.writeBufferFlushes(), 1u);

    // A sixth write parks in the buffer; power is cut before the
    // flush timer (200 us) fires, so it was never acknowledged — and
    // never durable. That is the contract: unacked data may vanish.
    rig.stage(7, 1);
    bool late_ack = false;
    rig.ftl.writePage(7, campaign::kHostBase,
                      [&](bool) { late_ack = true; });
    rig.eq.run(rig.eq.now() + ticks::fromUs(50));
    ASSERT_FALSE(late_ack);
    rig.powerCut();

    Rig boot2(2, cfg);
    rig.transplantInto(boot2);
    ASSERT_TRUE(boot2.mount());

    EXPECT_TRUE(boot2.readsBackAs(0, 2));
    for (std::uint64_t lpn = 1; lpn < 4; ++lpn)
        EXPECT_TRUE(boot2.readsBackAs(lpn, 1)) << "lpn " << lpn;
    EXPECT_FALSE(boot2.ftl.isMapped(7))
        << "an unacknowledged buffered write must not partially land";
}

// ---------------------------------------------------------------------
// Multi-channel mounts: deterministic recovery of torn cells
// ---------------------------------------------------------------------

ssd::SsdConfig
twoChannelSsd()
{
    ssd::SsdConfig cfg;
    cfg.channels = 2;
    cfg.flavor = "coro";
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.package.geometry.pagesPerBlock = 8;
    cfg.channel.package.geometry.blocksPerPlane = 16;
    cfg.channel.chips = 2;
    cfg.channel.seed = 7;
    cfg.dramBytes = 64ull << 20;
    return cfg;
}

/** FNV-1a fold of the remounted state: per-LPN mapping and content
 *  prefix, scan counters, and per-chip wear. Any nondeterminism in the
 *  mount shows up here. */
std::uint64_t
mountDigest(EventQueue &eq, ftl::PageFtl &ftl, core::FlashBackend &dev)
{
    campaign::Digest digest;
    const std::uint64_t check = 24 << 20;
    std::vector<std::uint8_t> got(ftl.pageBytes());
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn) {
        digest.fold(lpn);
        digest.fold(ftl.isMapped(lpn) ? 1 : 0);
        if (!ftl.isMapped(lpn))
            continue;
        bool ok = false;
        ftl.readPage(lpn, check, [&](bool o) { ok = o; });
        eq.run();
        digest.fold(ok ? 1 : 0);
        dev.backendDram().read(check, got);
        for (int i = 0; i < 16; ++i)
            digest.fold(got[i]);
    }
    digest.fold(ftl.mountPagesScanned());
    digest.fold(ftl.mountTornPages());
    for (std::uint32_t chip = 0; chip < 4; ++chip) {
        digest.fold(ftl.maxEraseCount(chip));
        digest.fold(ftl.wearSpread(chip));
    }
    for (const ftl::GrownDefect &d : ftl.exportGrownDefects()) {
        digest.fold(d.chip);
        digest.fold(d.block);
    }
    return digest.value();
}

TEST(FtlRecovery, TornMountIsByteIdenticalAcrossRemounts)
{
    // Build the "before" device on the classic engine: a written,
    // overwritten extent plus one torn program from a power cut.
    EventQueue eq;
    ssd::Ssd dev(eq, "ssd", twoChannelSsd());
    ftl::PageFtl ftl(eq, "ftl", dev, Rig::smallFtl());

    const std::uint64_t host = 16 << 20;
    std::vector<std::uint8_t> page(ftl.pageBytes());
    auto write_one = [&](std::uint64_t lpn, std::uint8_t tag) {
        std::fill(page.begin(), page.end(),
                  static_cast<std::uint8_t>(tag ^ lpn));
        dev.backendDram().write(host, page);
        bool done = false;
        ftl.writePage(lpn, host, [&](bool ok) {
            EXPECT_TRUE(ok);
            done = true;
        });
        eq.run();
        ASSERT_TRUE(done);
    };
    for (std::uint64_t lpn = 0; lpn < 24; ++lpn)
        write_one(lpn, 0x5A);
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
        write_one(lpn, 0xC3);

    // Probe the idle-device write-ack latency so the power cut lands
    // mid-program whatever the flavour's front-end latency: the ack
    // trails the 700 us program by little, so 350 us before the
    // projected ack is always inside the program window.
    const Tick probe_t0 = eq.now();
    write_one(30, 0x77);
    const Tick ack_latency = eq.now() - probe_t0;
    ASSERT_GT(ack_latency, ticks::fromUs(350));

    std::fill(page.begin(), page.end(), 0x11);
    dev.backendDram().write(host, page);
    ftl.writePage(2, host, [](bool) {});
    eq.run(eq.now() + ack_latency - ticks::fromUs(350));
    for (std::uint32_t ch = 0; ch < 2; ++ch)
        for (std::uint32_t c = 0; c < 2; ++c)
            dev.channelSystem(ch).lun(c).powerCut();

    // Remount the same cells twice on fresh devices: the recovered
    // state must agree in every byte the digest can see.
    std::vector<std::uint64_t> digests;
    for (int boot_no = 0; boot_no < 2; ++boot_no) {
        EventQueue beq;
        ssd::Ssd boot(beq, "ssd", twoChannelSsd());
        ftl::PageFtl ftl2(beq, "ftl", boot, Rig::smallFtl());
        for (std::uint32_t ch = 0; ch < 2; ++ch)
            for (std::uint32_t c = 0; c < 2; ++c)
                boot.channelSystem(ch).lun(c).array().copyStateFrom(
                    dev.channelSystem(ch).lun(c).array());
        bool mounted = false;
        ftl2.mount([&](bool ok) { mounted = ok; });
        beq.run();
        ASSERT_TRUE(mounted) << "boot " << boot_no;
        EXPECT_GE(ftl2.mountTornPages(), 1u);
        digests.push_back(mountDigest(beq, ftl2, boot));
    }
    EXPECT_EQ(digests[0], digests[1]);
}

} // namespace
