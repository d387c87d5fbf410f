/**
 * @file
 * Per-state power/energy accounting: exact integer fJ arithmetic,
 * inert disabled meters, per-component rails on a real channel
 * workload, the conservation invariant under a fault campaign, and
 * reproducible power-governor throttle windows.
 *
 * Every test builds its own SimContext, so its power model, auditor
 * and fault engine start fresh and see only its own meters.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/coro/coro_controller.hh"
#include "core/rtos_env/rtos_controller.hh"
#include "ftl/ftl.hh"
#include "host/fio.hh"
#include "obs/sim_context.hh"

using namespace babol;
using namespace babol::core;

namespace {

// ---------------------------------------------------------------------
// Unit arithmetic: 1 mW over 1 tick (ps) is exactly 1 fJ
// ---------------------------------------------------------------------

TEST(PowerMeter, IntegerFemtojouleArithmeticIsExact)
{
    SimContext ctx;
    obs::power::PowerModel &pm = ctx.power;
    pm.enable();
    EventQueue eq(ctx);
    obs::power::Meter m(eq, "lun0", {"read", "program"}, 2);
    ASSERT_TRUE(m.enabled());

    m.charge(0, 1000, 3000, 80);  // 80 mW x 2000 ps = 160000 fJ
    m.charge(1, 3000, 3500, 115); // 115 mW x 500 ps = 57500 fJ
    EXPECT_EQ(m.slotFj(0), 160000u);
    EXPECT_EQ(m.slotFj(1), 57500u);
    EXPECT_EQ(m.activeFj(), 217500u);
    EXPECT_EQ(m.activeTicks(), 2500u);
    EXPECT_EQ(pm.railTotalFj(), 217500u);

    // Idle is the wall-time remainder at the standby floor.
    EXPECT_EQ(m.idleFjAt(10000), (10000u - 2500u) * 2u);
    // ... saturating when charged windows exceed wall time (cache ops).
    EXPECT_EQ(m.idleFjAt(2000), 0u);
    EXPECT_EQ(pm.grandTotalFjAt(10000), 217500u + 15000u);

    std::string detail;
    EXPECT_TRUE(pm.conservationOk(&detail)) << detail;
}

TEST(PowerMeter, DisabledModelMetersAreInert)
{
    SimContext ctx; // power model never enabled
    obs::power::PowerModel &pm = ctx.power;
    EventQueue eq(ctx);
    const std::size_t before = ctx.metrics.size();
    obs::power::Meter m(eq, "lun0", {"read"}, 1);
    EXPECT_FALSE(m.enabled());
    EXPECT_EQ(ctx.metrics.size(), before) << "inert meters register "
                                             "no metrics";
    m.charge(0, 0, 5000, 80);
    EXPECT_EQ(m.activeFj(), 0u);
    EXPECT_EQ(m.idleFjAt(5000), 0u) << "disabled meters charge no idle";
    EXPECT_EQ(pm.railTotalFj(), 0u);
}

TEST(PowerMeter, RetiredEnergyStaysOnTheRail)
{
    SimContext ctx;
    obs::power::PowerModel &pm = ctx.power;
    pm.enable();
    EventQueue eq(ctx);
    {
        obs::power::Meter m(eq, "lun0", {"read"}, 1);
        m.charge(0, 0, 1000, 80);
    }
    EXPECT_EQ(pm.railTotalFj(), 80000u);
    EXPECT_EQ(pm.retiredFj(), 80000u);
    EXPECT_EQ(pm.liveActiveFj(), 0u);
    std::string detail;
    EXPECT_TRUE(pm.conservationOk(&detail)) << detail;
}

// ---------------------------------------------------------------------
// A real channel: every component rail accumulates
// ---------------------------------------------------------------------

/** Erase+program+read a little traffic through one channel. */
void
runSmallChannelWorkload(EventQueue &eq, ChannelSystem &sys,
                        ChannelController &ctrl, std::uint32_t pages)
{
    std::vector<std::uint8_t> payload(sys.pageDataBytes(), 0x5a);
    sys.dram().write(0, payload);

    for (std::uint32_t chip = 0; chip < sys.chipCount(); ++chip) {
        FlashRequest erase;
        erase.kind = FlashOpKind::Erase;
        erase.chip = chip;
        erase.row = {0, 0, 0};
        bool done = false;
        erase.onComplete = [&](OpResult r) {
            done = true;
            ASSERT_TRUE(r.ok);
        };
        ctrl.submit(std::move(erase));
        eq.run();
        ASSERT_TRUE(done);

        for (std::uint32_t page = 0; page < pages; ++page) {
            FlashRequest prog;
            prog.kind = FlashOpKind::Program;
            prog.chip = chip;
            prog.row = {0, 0, page};
            prog.dramAddr = 0;
            bool pdone = false;
            prog.onComplete = [&](OpResult r) {
                pdone = true;
                ASSERT_TRUE(r.ok);
            };
            ctrl.submit(std::move(prog));
            eq.run();
            ASSERT_TRUE(pdone);
        }
    }

    std::uint64_t completed = 0;
    const std::uint64_t total = 4ull * sys.chipCount() * pages;
    for (std::uint64_t i = 0; i < total; ++i) {
        FlashRequest read;
        read.kind = FlashOpKind::Read;
        read.chip = static_cast<std::uint32_t>(i % sys.chipCount());
        read.row = {0, 0, static_cast<std::uint32_t>(i / sys.chipCount()) %
                              pages};
        read.dramAddr = (1 << 20) +
                        static_cast<std::uint64_t>(read.chip) *
                            sys.pageDataBytes();
        read.onComplete = [&](OpResult r) {
            ++completed;
            ASSERT_TRUE(r.ok);
        };
        ctrl.submit(std::move(read));
    }
    eq.run();
    ASSERT_EQ(completed, total);
}

TEST(PowerRails, LunBusCpuAndDramAllAccumulate)
{
    SimContext ctx;
    obs::power::PowerModel &pm = ctx.power;
    pm.enable();

    EventQueue eq(ctx);
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.chips = 2;
    ChannelSystem sys(eq, "ssd", cfg);
    CoroController ctrl(eq, "ctrl", sys, SoftControllerConfig{});

    runSmallChannelWorkload(eq, sys, ctrl, 4);

    // LUN rails: reads, programs and erases all landed.
    std::uint64_t lunFj = 0;
    for (std::uint32_t c = 0; c < sys.bus().packageCount(); ++c) {
        nand::Package &pkg = sys.bus().package(c);
        for (std::uint32_t l = 0; l < pkg.lunCount(); ++l) {
            obs::power::Meter &m = pkg.lun(l).powerMeter();
            EXPECT_GT(m.activeFj(), 0u);
            lunFj += m.activeFj();
        }
    }
    const std::uint64_t busFj = sys.bus().powerMeter().activeFj();
    const std::uint64_t dramFj = sys.dram().powerMeter().activeFj();
    EXPECT_GT(busFj, 0u) << "cmd cycles and data bursts";
    EXPECT_GT(dramFj, 0u) << "staged pages";
    // The soft controller's CPU rail is the remainder of the total.
    EXPECT_GT(pm.railTotalFj(), lunFj + busFj + dramFj);

    std::string detail;
    EXPECT_TRUE(pm.conservationOk(&detail)) << detail;
}

// ---------------------------------------------------------------------
// Conservation under a fault campaign (retries, remaps, stuck-busy
// extensions all must keep the books balanced)
// ---------------------------------------------------------------------

TEST(PowerConservation, HoldsUnderAFaultCampaign)
{
    SimContext ctx;
    obs::power::PowerModel &pm = ctx.power;
    pm.enable();

    fault::FaultPlan plan = fault::parsePlan(R"(
        seed 1234
        fault bitburst  where=pkg0 nth=3 count=2 bits=40
        fault progfail  where=pkg1 nth=2
        fault erasefail where=pkg2 nth=1
        fault drift     where=pkg3 nth=2 level=2
        fault stuckbusy where=pkg3 nth=5 extra_us=100
    )");
    ctx.faults.arm(plan);

    {
        EventQueue eq(ctx);
        ChannelConfig cfg;
        cfg.package = nand::hynixPackage();
        cfg.package.geometry.pagesPerBlock = 32;
        cfg.chips = 4;
        ChannelSystem sys(eq, "ssd", cfg);

        SoftControllerConfig soft;
        soft.maxReadRetries = 4;
        RtosController ctrl(eq, "ctrl", sys, soft);

        ftl::FtlConfig fcfg;
        fcfg.blocksPerChip = 4;
        fcfg.overprovision = 0.25;
        ftl::PageFtl ftl(eq, "ftl", ctrl, fcfg);

        host::FioConfig fill_cfg;
        fill_cfg.queueDepth = 8;
        host::FioEngine filler(eq, "fill", ftl, fill_cfg);
        bool filled = false;
        filler.fill(64, [&] { filled = true; });
        eq.run();
        ASSERT_TRUE(filled);

        host::FioConfig io;
        io.pattern = host::FioConfig::Pattern::Random;
        io.queueDepth = 8;
        io.extentPages = 64;
        io.totalIos = 200;
        io.dramBase = 8 << 20;
        io.seed = 99;
        host::FioEngine engine(eq, "fio", ftl, io);
        bool done = false;
        engine.start([&] { done = true; });
        eq.run();
        ASSERT_TRUE(done);
        EXPECT_EQ(engine.errors(), 0u);
        EXPECT_GT(ctx.faults.injectedTotal(), 0u)
            << "the campaign must actually fire";

        std::string detail;
        EXPECT_TRUE(pm.conservationOk(&detail)) << detail;
        EXPECT_GT(pm.railTotalFj(), 0u);
    }

    // ... and after teardown the retired energy still balances.
    std::string detail;
    EXPECT_TRUE(pm.conservationOk(&detail)) << detail;
    EXPECT_EQ(pm.railTotalFj(), pm.retiredFj());
}

// ---------------------------------------------------------------------
// Governor: throttle windows fire under a low cap, land identically
// across reruns, and never lose requests
// ---------------------------------------------------------------------

using Windows = std::vector<std::pair<Tick, Tick>>;

Windows
runThrottledWorkload(SimContext &ctx, Tick *throttled_ticks)
{
    obs::power::GovernorConfig g;
    g.capMw = 25; // well under a busy channel's mean power
    ctx.power.setGovernorConfig(g);
    ctx.power.enable();

    EventQueue eq(ctx);
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.chips = 2;
    ChannelSystem sys(eq, "ssd", cfg);
    CoroController ctrl(eq, "ctrl", sys, SoftControllerConfig{});
    EXPECT_NE(ctrl.governor(), nullptr)
        << "a cap on an enabled model arms the governor";

    runSmallChannelWorkload(eq, sys, ctrl, 8);

    EXPECT_EQ(ctrl.deferredCount(), 0u) << "throttle releases drain";
    *throttled_ticks = ctrl.governor()->throttledTicks();
    return ctrl.governor()->windows();
}

TEST(PowerGovernorTest, ThrottleWindowsAreReproducibleAcrossReruns)
{
    Tick ticksA = 0, ticksB = 0;
    SimContext ctxA, ctxB;
    Windows a = runThrottledWorkload(ctxA, &ticksA);
    Windows b = runThrottledWorkload(ctxB, &ticksB);

    ASSERT_FALSE(a.empty()) << "the low cap must actually throttle";
    EXPECT_EQ(a, b) << "throttle placement is a pure function of the "
                       "workload";
    EXPECT_EQ(ticksA, ticksB);
    EXPECT_GT(ticksA, 0u);
    for (const auto &[from, until] : a)
        EXPECT_LT(from, until);
}

TEST(PowerGovernorTest, NoGovernorWithoutACap)
{
    SimContext ctx;
    ctx.power.enable();

    EventQueue eq(ctx);
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.chips = 2;
    ChannelSystem sys(eq, "ssd", cfg);
    CoroController ctrl(eq, "ctrl", sys, SoftControllerConfig{});
    EXPECT_EQ(ctrl.governor(), nullptr);
}

// ---------------------------------------------------------------------
// Auditor integration: the Power rule passes a clean governed run
// ---------------------------------------------------------------------

TEST(PowerAudit, GovernedRunPassesTheConservationRule)
{
    SimContext ctx;
    obs::audit::Auditor::Config acfg;
    acfg.throwOnDiagnostic = false;
    acfg.enableTrace = true;
    ctx.audit.arm(acfg);

    Tick ticks = 0;
    Windows w = runThrottledWorkload(ctx, &ticks);
    EXPECT_FALSE(w.empty());

    auto &aud = ctx.audit;
    aud.finish();
    std::ostringstream os;
    aud.writeReport(os);
    EXPECT_EQ(aud.unsuppressedCount(), 0u) << os.str();
}

// ---------------------------------------------------------------------
// Metrics snapshot JSON carries the capture's simulated time
// ---------------------------------------------------------------------

TEST(PowerMetricsJson, SnapshotEmitsTopLevelSimTicks)
{
    obs::MetricsSnapshot snap;
    snap.simTicks = 424242;
    std::ostringstream os;
    obs::MetricsRegistry::writeJson(os, snap);
    EXPECT_NE(os.str().find("\"sim_ticks\": 424242"), std::string::npos);
}

} // namespace
