/**
 * @file
 * The media-decay reliability subsystem: RBER model determinism (two
 * arrays with one seed wear identically, bit for bit), the patrol
 * scrubber's anti-starvation bound under a saturating host workload,
 * and RAIN parity carrying every acknowledged page through a die
 * failure injected mid-churn — stranded pages rebuilt, remapped off
 * the dead chip, and read back byte-identical.
 *
 * Runs in its own binary (ctest label `reliability`): the die-failure
 * test arms the default context's fault engine.
 */

#include <gtest/gtest.h>

#include <vector>

#include "campaign/rig.hh"
#include "ftl/ftl.hh"
#include "nand/flash_array.hh"
#include "nand/timing.hh"
#include "obs/sim_context.hh"
#include "reliability/rain.hh"
#include "reliability/scrub.hh"

using namespace babol;
using namespace babol::core;

namespace {

// ---------------------------------------------------------------------
// RBER model determinism
// ---------------------------------------------------------------------

/** Identical op sequence on one array: program a block, then read
 *  every page thrice at escalating retry levels, collecting the flip
 *  sideband and the model's RBER curve. */
struct DecayTrace
{
    std::vector<std::uint32_t> flips;
    std::vector<double> rber;
};

DecayTrace
runDecay(nand::FlashArray &array, const nand::Geometry &g)
{
    DecayTrace t;
    // Pre-age the block so the wear term is live in the comparison.
    for (int pe = 0; pe < 400; ++pe)
        array.eraseBlock(2, false);

    array.eraseBlock(2, false);
    std::vector<std::uint8_t> data(g.pageTotalBytes(), 0xA5);
    for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p)
        array.programPage(2, p, data, /*now=*/1000);

    const Tick later = 700 * ticks::perMs; // retention term engaged
    for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p) {
        for (std::uint32_t lvl = 0; lvl < 3; ++lvl) {
            nand::PageLoad load = array.readPage(2, p, lvl, false, later);
            t.flips.insert(t.flips.end(), load.flippedBits.begin(),
                           load.flippedBits.end());
            t.rber.push_back(array.pageRber(2, p, lvl, false, later));
        }
    }
    return t;
}

TEST(RberModel, SameSeedSameWearSameErrors)
{
    const nand::Geometry g = nand::hynixPackage().geometry;
    nand::FlashArray a(g, 77), b(g, 77);

    DecayTrace ta = runDecay(a, g), tb = runDecay(b, g);

    // Bit-for-bit: the injected flip positions AND the analytic RBER
    // curve must match across instances — campaigns replay.
    EXPECT_EQ(ta.flips, tb.flips);
    EXPECT_EQ(ta.rber, tb.rber);

    // The model is doing real work in this regime (wear + retention
    // above baseline), not comparing zeros.
    EXPECT_GT(a.pageRber(2, 0, 0, false, 700 * ticks::perMs),
              a.effectiveRber(3, 0, false)); // fresh block, no terms
}

TEST(RberModel, WearAndRetryLevelShapeTheCurve)
{
    const nand::Geometry g = nand::hynixPackage().geometry;
    nand::FlashArray array(g, 9);
    array.eraseBlock(0, false);
    const double fresh = array.effectiveRber(0, 0, false);

    for (int pe = 0; pe < 1500; ++pe)
        array.eraseBlock(0, false);
    const double worn = array.effectiveRber(
        0, array.optimalRetryLevel(0), false);
    EXPECT_GT(worn, fresh); // a knee's worth of wear ≈ doubled RBER

    // Off-optimal retry levels always read worse.
    const std::uint32_t opt = array.optimalRetryLevel(0);
    EXPECT_GT(array.effectiveRber(0, opt + 2, false),
              array.effectiveRber(0, opt, false));
}

// ---------------------------------------------------------------------
// Patrol scrubber: anti-starvation bound
// ---------------------------------------------------------------------

TEST(PatrolScrub, ForcedSlotsBoundStarvationUnderSaturation)
{
    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 16;
    fcfg.overprovision = 0.25;
    fcfg.reliabilityScratchPages = 4;
    campaign::Rig rig(2, fcfg);

    // Seed live pages for the patrol to walk.
    for (std::uint64_t lpn = 0; lpn < 24; ++lpn)
        ASSERT_TRUE(rig.write(lpn, 1));

    reliability::ScrubConfig scfg;
    scfg.intervalUs = 20;
    scfg.maxYields = 4;
    reliability::PatrolScrubber scrub(rig.eq, "scrub", rig.ftl, scfg);
    scrub.start();

    // A saturating host workload: each ack immediately issues the
    // next write, so hostBusy() is true at essentially every patrol
    // slot for several milliseconds of simulated time.
    constexpr int kWrites = 240;
    int issued = 0;
    std::function<void()> next = [&] {
        if (issued >= kWrites) {
            scrub.stop();
            return;
        }
        const std::uint64_t lpn = issued % 24;
        const std::uint64_t gen = 2 + issued / 24;
        ++issued;
        rig.stage(lpn, gen);
        rig.ftl.writePage(lpn, campaign::kHostBase, [&](bool ok) {
            ASSERT_TRUE(ok);
            next();
        });
    };
    next();
    rig.eq.run();

    EXPECT_EQ(issued, kWrites);
    // The scrubber yielded to the host...
    EXPECT_GT(scrub.yields(), 0u);
    // ...but the starvation bound kicked in: patrol reads were forced
    // through the saturated workload, never waiting more than
    // maxYields consecutive slots.
    EXPECT_GT(scrub.forcedSlots(), 0u);
    EXPECT_GE(scrub.patrolReads(), scrub.forcedSlots());
}

// ---------------------------------------------------------------------
// RAIN: die failure mid-churn
// ---------------------------------------------------------------------

TEST(Rain, DieFailureMidChurnLosesNothing)
{
    fault::FaultPlan plan;
    plan.seed = 41;
    fault::FaultEngine &faults = SimContext::processDefault().faults;
    faults.arm(plan); // armed engine, no scheduled faults

    {
        ftl::FtlConfig fcfg;
        fcfg.blocksPerChip = 16;
        fcfg.overprovision = 0.25;
        fcfg.reliabilityScratchPages = 8;
        campaign::Rig rig(4, fcfg);
        reliability::RainManager rain(rig.eq, "rain", rig.ftl);

        // Three overwrite rounds on 80 LPNs: enough churn that GC has
        // erased blocks and stripes have released members by the time
        // the die dies.
        constexpr std::uint64_t kExtent = 80;
        std::vector<std::uint64_t> gen(kExtent, 0);
        for (std::uint64_t g = 1; g <= 3; ++g)
            for (std::uint64_t lpn = 0; lpn < kExtent; ++lpn) {
                ASSERT_TRUE(rig.write(lpn, g));
                gen[lpn] = g;
            }

        // Kill chip 1 under the FTL's feet.
        faults.failDie(rig.ctrl->backendChipName(1), rig.eq.now());
        rig.ftl.markChipDead(1);
        ASSERT_TRUE(faults.dieDead("ssd.pkg1"));

        // Keep writing through the failure, then let the background
        // rebuild sweep drain.
        for (std::uint64_t lpn = 0; lpn < kExtent; lpn += 2) {
            ASSERT_TRUE(rig.write(lpn, 4));
            gen[lpn] = 4;
        }
        rig.eq.run();

        // Zero acknowledged data lost: every LPN reads back its last
        // acknowledged generation, byte for byte.
        for (std::uint64_t lpn = 0; lpn < kExtent; ++lpn)
            EXPECT_TRUE(rig.readsBackAs(lpn, gen[lpn]))
                << "lpn " << lpn << " gen " << gen[lpn];
        EXPECT_EQ(rig.ftl.dataLoss(), 0u);

        // The sweep finished its job: nothing is still mapped to the
        // dead chip, and stripes got real XOR rebuilds done.
        for (std::uint64_t lpn = 0; lpn < kExtent; ++lpn) {
            auto mp = rig.ftl.mappedPpa(lpn);
            ASSERT_TRUE(mp.has_value());
            EXPECT_NE(mp->chip, 1u) << "lpn " << lpn;
        }
        EXPECT_GT(rain.rebuildsOk(), 0u);
        EXPECT_GT(rain.stripesSealed(), 0u);
        EXPECT_GT(rain.parityWrites(), 0u);
    }

    faults.disarm();
}

} // namespace
