/**
 * @file
 * Full-device tests: the multi-channel Ssd back end, the HIC's
 * sector-level splitting and read-modify-write, and the FTL's
 * wear-levelling and bad-block retirement.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "host/fio.hh"
#include "host/hic.hh"
#include "core/hw/hw_controller.hh"
#include "sim/random.hh"
#include "ssd/ssd.hh"

using namespace babol;
using namespace babol::core;
using namespace babol::ssd;

namespace {

SsdConfig
smallSsd(std::uint32_t channels, std::uint32_t ways,
         const std::string &flavor = "hw-async")
{
    SsdConfig cfg;
    cfg.channels = channels;
    cfg.flavor = flavor;
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.package.geometry.pagesPerBlock = 8;
    cfg.channel.package.geometry.blocksPerPlane = 16;
    cfg.channel.chips = ways;
    cfg.dramBytes = 64ull << 20;
    return cfg;
}

ftl::FtlConfig
smallFtl()
{
    ftl::FtlConfig cfg;
    cfg.blocksPerChip = 8;
    cfg.overprovision = 0.25;
    return cfg;
}

TEST(Ssd, RoutesGlobalChipsToChannels)
{
    EventQueue eq;
    Ssd ssd(eq, "ssd", smallSsd(2, 2));
    EXPECT_EQ(ssd.backendChipCount(), 4u);

    // Global chip 3 = channel 1, way 1.
    bool done = false;
    FlashRequest erase;
    erase.kind = FlashOpKind::Erase;
    erase.chip = 3;
    erase.row = {0, 0, 0};
    erase.onComplete = [&](OpResult r) {
        EXPECT_TRUE(r.ok);
        done = true;
    };
    ssd.submit(std::move(erase));
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(ssd.channelSystem(1).lun(1).completedErases(), 1u);
    EXPECT_EQ(ssd.channelSystem(0).lun(0).completedErases(), 0u);
    EXPECT_EQ(ssd.controller(1).opsCompleted(), 1u);
    EXPECT_EQ(ssd.controller(0).opsCompleted(), 0u);
}

TEST(Ssd, ChannelsShareOneDram)
{
    EventQueue eq;
    Ssd ssd(eq, "ssd", smallSsd(2, 1));
    EXPECT_EQ(&ssd.channelSystem(0).dram(), &ssd.channelSystem(1).dram());
    EXPECT_EQ(&ssd.backendDram(), &ssd.channelSystem(0).dram());
}

TEST(Ssd, FtlStripesAcrossChannels)
{
    EventQueue eq;
    Ssd ssd(eq, "ssd", smallSsd(2, 2));
    ftl::PageFtl ftl(eq, "ftl", ssd, smallFtl());

    std::vector<std::uint8_t> payload(ftl.pageBytes(), 0xAB);
    ssd.backendDram().write(0, payload);
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
        bool ok = false;
        ftl.writePage(lpn, 0, [&](bool o) { ok = o; });
        eq.run();
        ASSERT_TRUE(ok);
    }
    // 8 sequential pages over 4 global chips: 2 programs per chip,
    // i.e., both channels carry half the traffic each.
    EXPECT_EQ(ssd.controller(0).payloadBytesWritten(),
              ssd.controller(1).payloadBytesWritten());
    EXPECT_EQ(ssd.payloadBytesWritten(), 8ull * ftl.pageBytes());
}

TEST(Ssd, MoreChannelsMoreWriteBandwidth)
{
    auto fill_time_ms = [](std::uint32_t channels) {
        EventQueue eq;
        Ssd ssd(eq, "ssd", smallSsd(channels, 2));
        ftl::PageFtl ftl(eq, "ftl", ssd, smallFtl());
        host::FioConfig cfg;
        cfg.queueDepth = 8 * channels;
        host::FioEngine fio(eq, "fio", ftl, cfg);
        bool done = false;
        fio.fill(48, [&] { done = true; });
        eq.run();
        EXPECT_TRUE(done);
        return ticks::toMs(fio.elapsed());
    };
    double one = fill_time_ms(1);
    double four = fill_time_ms(4);
    EXPECT_LT(four, one / 2.5); // near-linear channel scaling
}

TEST(Ssd, Fig12WorkloadFiresDeterministically)
{
    // The Fig. 12 shape in miniature: precondition with a fio fill,
    // then run seeded random reads — twice. Both runs must produce
    // tick-for-tick identical event firing order (the kernel's FIFO-at-
    // same-tick invariant), not just matching aggregate results.
    auto runOnce = [] {
        std::vector<std::pair<Tick, std::uint64_t>> firings;
        EventQueue eq;
        eq.setFireHook([&](Tick t, std::uint64_t seq) {
            firings.emplace_back(t, seq);
        });
        Ssd ssd(eq, "ssd", smallSsd(2, 2, "coro"));
        ftl::PageFtl ftl(eq, "ftl", ssd, smallFtl());

        host::FioConfig fill_cfg;
        fill_cfg.queueDepth = 4;
        host::FioEngine filler(eq, "fill", ftl, fill_cfg);
        bool filled = false;
        filler.fill(32, [&] { filled = true; });
        eq.run();
        EXPECT_TRUE(filled);

        host::FioConfig io_cfg;
        io_cfg.pattern = host::FioConfig::Pattern::Random;
        io_cfg.queueDepth = 8;
        io_cfg.extentPages = 32;
        io_cfg.totalIos = 64;
        io_cfg.seed = 99;
        io_cfg.dramBase = 8 << 20;
        host::FioEngine engine(eq, "fio", ftl, io_cfg);
        bool done = false;
        engine.start([&] { done = true; });
        eq.run();
        EXPECT_TRUE(done);
        EXPECT_EQ(engine.errors(), 0u);
        firings.emplace_back(eq.now(), eq.scheduledCount());
        return firings;
    };
    auto first = runOnce();
    auto second = runOnce();
    ASSERT_GT(first.size(), 1000u); // a real workload, not a stub
    EXPECT_EQ(first, second);
}

TEST(Ssd, UnknownFlavorIsFatal)
{
    EventQueue eq;
    SsdConfig cfg = smallSsd(1, 1);
    cfg.flavor = "fpga";
    EXPECT_THROW(Ssd(eq, "ssd", cfg), SimFatal);
}

// --- HIC ---

struct HicRig
{
    EventQueue eq;
    Ssd ssd;
    ftl::PageFtl ftl;
    host::Hic hic;

    HicRig()
        : ssd(eq, "ssd", smallSsd(2, 2)),
          ftl(eq, "ftl", ssd, smallFtl()),
          hic(eq, "hic", ftl)
    {}

    bool
    runIo(host::HostIo io)
    {
        bool ok = false, done = false;
        io.onComplete = [&](bool o) {
            ok = o;
            done = true;
        };
        hic.submit(std::move(io));
        eq.run();
        EXPECT_TRUE(done);
        return ok;
    }

    std::vector<std::uint8_t>
    dramAt(std::uint64_t addr, std::uint32_t len)
    {
        std::vector<std::uint8_t> buf(len);
        ssd.backendDram().read(addr, buf);
        return buf;
    }
};

TEST(Hic, GeometryDerivation)
{
    HicRig rig;
    EXPECT_EQ(rig.hic.sectorsPerPage(), 4u); // 16 KiB page / 4 KiB sector
    EXPECT_EQ(rig.hic.totalSectors(), rig.ftl.logicalPages() * 4);
}

TEST(Hic, UnwrittenSectorsReadZero)
{
    HicRig rig;
    // Pre-fill the host buffer with garbage; the read must zero it.
    std::vector<std::uint8_t> junk(2 * 4096, 0xEE);
    rig.ssd.backendDram().write(0, junk);

    host::HostIo io;
    io.lba = 5;
    io.sectors = 2;
    io.dramAddr = 0;
    ASSERT_TRUE(rig.runIo(io));
    EXPECT_EQ(rig.dramAt(0, 2 * 4096),
              std::vector<std::uint8_t>(2 * 4096, 0x00));
}

TEST(Hic, AlignedWholePageWriteRead)
{
    HicRig rig;
    std::vector<std::uint8_t> payload(4 * 4096);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 3);
    rig.ssd.backendDram().write(0, payload);

    host::HostIo write;
    write.write = true;
    write.lba = 8; // page-aligned (4 sectors/page)
    write.sectors = 4;
    write.dramAddr = 0;
    ASSERT_TRUE(rig.runIo(write));
    EXPECT_EQ(rig.hic.rmwCount(), 0u);

    host::HostIo read;
    read.lba = 8;
    read.sectors = 4;
    read.dramAddr = 1 << 20;
    ASSERT_TRUE(rig.runIo(read));
    EXPECT_EQ(rig.dramAt(1 << 20, 4 * 4096), payload);
}

TEST(Hic, SubPageWriteDoesRmwAndPreservesNeighbors)
{
    HicRig rig;
    // Write a full page of 0x11 first.
    std::vector<std::uint8_t> ones(4 * 4096, 0x11);
    rig.ssd.backendDram().write(0, ones);
    host::HostIo full;
    full.write = true;
    full.lba = 0;
    full.sectors = 4;
    full.dramAddr = 0;
    ASSERT_TRUE(rig.runIo(full));

    // Overwrite only sector 2 with 0x22.
    std::vector<std::uint8_t> twos(4096, 0x22);
    rig.ssd.backendDram().write(1 << 20, twos);
    host::HostIo sub;
    sub.write = true;
    sub.lba = 2;
    sub.sectors = 1;
    sub.dramAddr = 1 << 20;
    ASSERT_TRUE(rig.runIo(sub));
    EXPECT_EQ(rig.hic.rmwCount(), 1u);

    // Read the page back: sectors 0,1,3 keep 0x11; sector 2 is 0x22.
    host::HostIo read;
    read.lba = 0;
    read.sectors = 4;
    read.dramAddr = 2 << 20;
    ASSERT_TRUE(rig.runIo(read));
    auto got = rig.dramAt(2 << 20, 4 * 4096);
    EXPECT_EQ(std::vector<std::uint8_t>(got.begin(), got.begin() + 8192),
              std::vector<std::uint8_t>(8192, 0x11));
    EXPECT_EQ(std::vector<std::uint8_t>(got.begin() + 8192,
                                        got.begin() + 12288),
              std::vector<std::uint8_t>(4096, 0x22));
    EXPECT_EQ(std::vector<std::uint8_t>(got.begin() + 12288, got.end()),
              std::vector<std::uint8_t>(4096, 0x11));
}

TEST(Hic, MisalignedMultiPageIoSplitsCorrectly)
{
    HicRig rig;
    // 9 sectors starting at lba 2 (sectors 2..10): a partial head
    // (page 0, sectors 2-3), a full middle (page 1), and a partial
    // tail (page 2, sectors 0-2) — both ends need RMW.
    std::vector<std::uint8_t> payload(9 * 4096);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i / 4096 + 1);
    rig.ssd.backendDram().write(0, payload);

    host::HostIo write;
    write.write = true;
    write.lba = 2;
    write.sectors = 9;
    write.dramAddr = 0;
    ASSERT_TRUE(rig.runIo(write));
    EXPECT_GE(rig.hic.rmwCount(), 2u); // head and tail partial pages

    host::HostIo read;
    read.lba = 2;
    read.sectors = 9;
    read.dramAddr = 4 << 20;
    ASSERT_TRUE(rig.runIo(read));
    EXPECT_EQ(rig.dramAt(4 << 20, 9 * 4096), payload);
}

TEST(Hic, ConcurrentSubPageWritesToOnePageSerialize)
{
    HicRig rig;
    // Four concurrent single-sector writes to the same page; the page
    // lock must serialize the RMWs so all four land.
    for (std::uint32_t s = 0; s < 4; ++s) {
        std::vector<std::uint8_t> val(4096,
                                      static_cast<std::uint8_t>(0x40 + s));
        rig.ssd.backendDram().write((1 + s) << 20, val);
    }
    int done = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
        host::HostIo io;
        io.write = true;
        io.lba = s;
        io.sectors = 1;
        io.dramAddr = (1 + s) << 20;
        io.onComplete = [&](bool ok) {
            EXPECT_TRUE(ok);
            ++done;
        };
        rig.hic.submit(std::move(io));
    }
    rig.eq.run();
    ASSERT_EQ(done, 4);

    host::HostIo read;
    read.lba = 0;
    read.sectors = 4;
    read.dramAddr = 8 << 20;
    ASSERT_TRUE(rig.runIo(read));
    auto got = rig.dramAt(8 << 20, 4 * 4096);
    for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(got[s * 4096], 0x40 + s) << "sector " << s;
        EXPECT_EQ(got[s * 4096 + 4095], 0x40 + s) << "sector " << s;
    }
}

/**
 * The HIC's RMW scratch slots must not share DRAM with the FTL's
 * per-chip GC staging pages: many concurrent single-sector writes on a
 * small 4-chip device keep every slot busy while GC moves valid pages,
 * and every sector must still read back as last written.
 */
TEST(Hic, SubPageWritesSurviveConcurrentGc)
{
    HicRig rig;
    const std::uint32_t sector = rig.hic.sectorBytes();
    // A third of the logical space: GC always finds invalid pages.
    const std::uint64_t sectors = rig.hic.totalSectors() / 3;
    std::vector<std::uint8_t> last(sectors, 0); // fill byte; 0 = unwritten
    Rng rng(0x41C);
    std::uint8_t stamp = 0;

    for (int round = 0; round < 120; ++round) {
        // 16 single-sector writes in flight at once, distinct sectors.
        std::vector<std::uint64_t> lbas;
        while (lbas.size() < 16) {
            std::uint64_t lba = rng.uniform(0, sectors - 1);
            if (std::find(lbas.begin(), lbas.end(), lba) == lbas.end())
                lbas.push_back(lba);
        }
        int done = 0;
        for (std::size_t i = 0; i < lbas.size(); ++i) {
            stamp = static_cast<std::uint8_t>(stamp % 255 + 1);
            last[lbas[i]] = stamp;
            std::uint64_t buf = static_cast<std::uint64_t>(i) * sector;
            rig.ssd.backendDram().write(
                buf, std::vector<std::uint8_t>(sector, stamp));
            host::HostIo io;
            io.write = true;
            io.lba = lbas[i];
            io.sectors = 1;
            io.dramAddr = buf;
            io.onComplete = [&](bool ok) {
                EXPECT_TRUE(ok);
                ++done;
            };
            rig.hic.submit(std::move(io));
        }
        rig.eq.run();
        ASSERT_EQ(done, 16);
    }
    ASSERT_GT(rig.ftl.gcPageMoves(), 0u) << "workload never ran GC";

    const std::uint64_t out = 8ull << 20;
    std::vector<std::uint64_t> corrupt;
    for (std::uint64_t lba = 0; lba < sectors; ++lba) {
        host::HostIo read;
        read.lba = lba;
        read.sectors = 1;
        read.dramAddr = out;
        ASSERT_TRUE(rig.runIo(read));
        if (rig.dramAt(out, sector) !=
            std::vector<std::uint8_t>(sector, last[lba]))
            corrupt.push_back(lba);
    }
    EXPECT_TRUE(corrupt.empty())
        << corrupt.size() << " sectors read back wrong, first " << corrupt[0];
}

// --- Wear levelling & bad blocks ---

TEST(FtlWear, AllocationPrefersColdBlocks)
{
    EventQueue eq;
    ChannelConfig ccfg;
    ccfg.package = nand::hynixPackage();
    ccfg.package.geometry.pagesPerBlock = 4;
    ccfg.chips = 1;
    ChannelSystem sys(eq, "ssd", ccfg);
    HwController ctrl(eq, "ctrl", sys, false);

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 6;
    fcfg.overprovision = 0.34;
    ftl::PageFtl ftl(eq, "ftl", ctrl, fcfg);

    std::vector<std::uint8_t> payload(ftl.pageBytes(), 1);
    sys.dram().write(0, payload);

    // Hammer a small extent; wear levelling must keep erase counts
    // within a tight band across blocks.
    for (int i = 0; i < 120; ++i) {
        bool ok = false;
        ftl.writePage(i % 4, 0, [&](bool o) { ok = o; });
        eq.run();
        ASSERT_TRUE(ok);
    }
    std::uint32_t hottest = ftl.maxEraseCount(0);
    std::uint32_t coldest_free = ftl.minFreeEraseCount(0);
    EXPECT_GT(hottest, 2u);
    EXPECT_LE(hottest - std::min(hottest, coldest_free), 4u)
        << "erase counts diverged: wear levelling broken";
}

TEST(FtlWear, BadBlockRetirementKeepsDeviceWritable)
{
    EventQueue eq;
    ChannelConfig ccfg;
    ccfg.package = nand::hynixPackage();
    ccfg.package.geometry.pagesPerBlock = 4;
    ccfg.chips = 1;
    ccfg.seed = 31;
    ChannelSystem sys(eq, "ssd", ccfg);
    HwController ctrl(eq, "ctrl", sys, false);

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 8;
    fcfg.overprovision = 0.30;
    ftl::PageFtl ftl(eq, "ftl", ctrl, fcfg);

    // Pre-age two physical blocks far beyond endurance so their next
    // erases fail and the FTL must retire them.
    sys.lun(0).array().agePeCycles(2, 100000);
    sys.lun(0).array().agePeCycles(5, 100000);

    std::vector<std::uint8_t> payload(ftl.pageBytes(), 7);
    sys.dram().write(0, payload);
    int failures = 0;
    for (int i = 0; i < 60; ++i) {
        bool ok = false;
        ftl.writePage(i % 8, 0, [&](bool o) { ok = o; });
        eq.run();
        if (!ok)
            ++failures;
    }
    EXPECT_EQ(failures, 0) << "writes must survive bad blocks";
    EXPECT_GE(ftl.blocksRetired(), 1u);

    // Data remains readable.
    bool ok = false;
    ftl.readPage(3, 1 << 20, [&](bool o) { ok = o; });
    eq.run();
    EXPECT_TRUE(ok);
}

} // namespace
