/**
 * @file
 * FTL and host-engine tests: mapping, striping, GC, and fio-style runs
 * over the full simulated SSD.
 */

#include <gtest/gtest.h>

#include "campaign/rig.hh"
#include "ftl/ftl.hh"
#include "host/fio.hh"

using namespace babol;
using namespace babol::core;
using namespace babol::ftl;
using namespace babol::host;

namespace {

using campaign::Rig;

/** Room for GC on the campaign rig: 16 managed blocks per chip. */
FtlConfig
gcFtl()
{
    FtlConfig cfg;
    cfg.blocksPerChip = 16;
    cfg.overprovision = 0.25;
    cfg.gcLowWater = 2;
    return cfg;
}

TEST(Ftl, WriteReadRoundTrip)
{
    Rig rig(4, gcFtl());
    ASSERT_TRUE(rig.write(7, 1));
    EXPECT_TRUE(rig.ftl.isMapped(7));
    EXPECT_FALSE(rig.ftl.isMapped(8));
    EXPECT_TRUE(rig.readsBackAs(7, 1));
}

TEST(Ftl, UnmappedReadFails)
{
    Rig rig(4, gcFtl());
    EXPECT_FALSE(rig.read(3));
}

TEST(Ftl, SequentialWritesStripeAcrossChips)
{
    Rig rig(4, gcFtl());
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
        ASSERT_TRUE(rig.write(lpn, 1));

    // With 4 chips and round-robin striping, 8 sequential LPNs must
    // have programmed exactly 2 pages on each chip.
    for (std::uint32_t chip = 0; chip < 4; ++chip)
        EXPECT_EQ(rig.sys.lun(chip).completedPrograms(), 2u);
}

TEST(Ftl, OverwriteRemapsAndInvalidates)
{
    Rig rig(4, gcFtl());
    ASSERT_TRUE(rig.write(5, 1));
    ASSERT_TRUE(rig.write(5, 2));
    EXPECT_TRUE(rig.readsBackAs(5, 2));
}

TEST(Ftl, GarbageCollectionReclaimsSpace)
{
    Rig rig(2, gcFtl());

    // Keep overwriting a small extent (randomly, so victim blocks hold
    // a mix of valid and invalid pages) until total writes far exceed
    // physical capacity; GC must kick in and keep the device writable.
    Rng rng(7);
    const std::uint64_t extent = rig.ftl.logicalPages() / 2;
    const std::uint64_t total = rig.ftl.logicalPages() * 3;
    for (std::uint64_t i = 0; i < extent; ++i)
        ASSERT_TRUE(rig.write(i, 1)) << "fill " << i;
    for (std::uint64_t i = extent; i < total; ++i)
        ASSERT_TRUE(rig.write(rng.uniform(0, extent - 1), 1))
            << "write " << i;

    EXPECT_GT(rig.ftl.gcRuns(), 0u);
    EXPECT_GT(rig.ftl.gcPageMoves(), 0u);

    // Every live LPN must still read back correctly.
    EXPECT_TRUE(rig.readsBackAs(extent - 1, 1));
}

TEST(Fio, SequentialReadSaturatesWithDepth)
{
    Rig rig(4, gcFtl());

    FioConfig fill_cfg;
    fill_cfg.dramBase = 0;
    fill_cfg.queueDepth = 8;
    FioEngine engine(rig.eq, "fio", rig.ftl, fill_cfg);

    bool filled = false;
    engine.fill(64, [&] { filled = true; });
    rig.eq.run();
    ASSERT_TRUE(filled);

    FioConfig cfg;
    cfg.pattern = FioConfig::Pattern::Sequential;
    cfg.queueDepth = 8;
    cfg.extentPages = 64;
    cfg.totalIos = 256;
    cfg.dramBase = 8 << 20;
    FioEngine bench(rig.eq, "fio2", rig.ftl, cfg);

    bool done = false;
    bench.start([&] { done = true; });
    rig.eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(bench.completed(), 256u);
    EXPECT_EQ(bench.errors(), 0u);

    // 4 interleaved Hynix chips at 200 MT/s: the channel tops out near
    // the transfer bandwidth (~16 KiB / ~93 us ≈ 170 MB/s); with tR
    // overlap we should land well above a single chip's ~80 MB/s.
    EXPECT_GT(bench.bandwidthMBps(), 100.0);
    EXPECT_LT(bench.bandwidthMBps(), 200.0);
}

TEST(Fio, RandomReadsComplete)
{
    Rig rig(2, gcFtl());

    FioConfig fill_cfg;
    FioEngine engine(rig.eq, "fio", rig.ftl, fill_cfg);
    bool filled = false;
    engine.fill(32, [&] { filled = true; });
    rig.eq.run();
    ASSERT_TRUE(filled);

    FioConfig cfg;
    cfg.pattern = FioConfig::Pattern::Random;
    cfg.queueDepth = 4;
    cfg.extentPages = 32;
    cfg.totalIos = 128;
    cfg.dramBase = 8 << 20;
    FioEngine bench(rig.eq, "fio2", rig.ftl, cfg);
    bool done = false;
    bench.start([&] { done = true; });
    rig.eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(bench.errors(), 0u);
    EXPECT_GT(bench.latencyUs().percentile(50), 100.0);
}

} // namespace
