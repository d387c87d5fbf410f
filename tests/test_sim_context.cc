/**
 * @file
 * SimContext isolation: two simulations built on one thread, each on
 * its own context, share nothing but the label interner — a fault
 * plan armed in one never strikes the other, each power model totals
 * and audits only its own meters, and each metrics registry and trace
 * ring holds only its own simulation's entries.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/coro/coro_controller.hh"
#include "ftl/ftl.hh"
#include "host/fio.hh"
#include "obs/sim_context.hh"

using namespace babol;
using namespace babol::core;

namespace {

/** One small traced, metered device on its own context. */
struct Sim
{
    SimContext ctx;
    EventQueue eq{ctx};
    std::unique_ptr<ChannelSystem> sys;
    std::unique_ptr<CoroController> ctrl;
    std::unique_ptr<ftl::PageFtl> ftl;

    explicit Sim(const std::string &prefix)
    {
        ctx.power.enable();
        ctx.trace.setEnabled(true);
        ChannelConfig cfg;
        cfg.package = nand::hynixPackage();
        cfg.package.geometry.pagesPerBlock = 16;
        cfg.chips = 2;
        sys = std::make_unique<ChannelSystem>(eq, prefix + ".ssd", cfg);
        SoftControllerConfig soft;
        soft.maxReadRetries = 4;
        ctrl = std::make_unique<CoroController>(eq, prefix + ".ctrl", *sys,
                                                soft);
        ftl::FtlConfig fcfg;
        fcfg.blocksPerChip = 8;
        fcfg.overprovision = 0.25;
        ftl = std::make_unique<ftl::PageFtl>(eq, prefix + ".ftl", *ctrl,
                                             fcfg);
    }

    /** Σ every meter this device built — what its model must total. */
    std::uint64_t
    componentFj()
    {
        std::uint64_t fj = sys->bus().powerMeter().activeFj() +
                           sys->dram().powerMeter().activeFj() +
                           ctrl->cpu().powerMeter().activeFj();
        for (std::uint32_t c = 0; c < sys->chipCount(); ++c)
            fj += sys->lun(c).powerMeter().activeFj();
        return fj;
    }
};

TEST(SimContext, TwoSimulationsOnOneThreadShareNothing)
{
    Sim a("a"), b("b");
    // Both devices have identically named chips ("*.pkg0"...), so a
    // shared engine would strike B's with A's plan.
    a.ctx.faults.arm(fault::parsePlan(R"(
        seed 3
        fault bitburst  where=pkg nth=3 count=2 bits=40
        fault drift     where=pkg nth=5 level=2
    )"));

    // Interleave the two simulations event by event on this thread: B
    // runs a longer workload, so the two power totals must differ.
    host::FioEngine fillA(a.eq, "a.fill", *a.ftl, {});
    host::FioEngine fillB(b.eq, "b.fill", *b.ftl, {});
    bool doneA = false, doneB = false;
    fillA.fill(24, [&] { doneA = true; });
    fillB.fill(48, [&] { doneB = true; });
    bool progress = true;
    while (progress) {
        const bool stepA = a.eq.step();
        const bool stepB = b.eq.step();
        progress = stepA || stepB;
    }
    ASSERT_TRUE(doneA);
    ASSERT_TRUE(doneB);
    EXPECT_EQ(fillA.errors() + fillB.errors(), 0u);

    host::FioConfig io;
    io.pattern = host::FioConfig::Pattern::Random;
    io.queueDepth = 4;
    io.extentPages = 24;
    io.totalIos = 40;
    io.dramBase = 1 << 20;
    host::FioEngine readA(a.eq, "a.fio", *a.ftl, io);
    bool readDone = false;
    readA.start([&] { readDone = true; });
    a.eq.run();
    ASSERT_TRUE(readDone);
    EXPECT_EQ(readA.errors(), 0u);

    // Faults: A's plan fired in A only.
    EXPECT_GT(a.ctx.faults.injectedTotal(), 0u);
    EXPECT_FALSE(b.ctx.faults.armed());
    EXPECT_EQ(b.ctx.faults.injectedTotal(), 0u);
    EXPECT_EQ(b.ctx.faults.retrySteps(), 0u);

    // Power: each model totals exactly its own device's meters, and
    // each conservation check passes on its own books.
    EXPECT_EQ(a.ctx.power.railTotalFj(), a.componentFj());
    EXPECT_EQ(b.ctx.power.railTotalFj(), b.componentFj());
    EXPECT_NE(a.ctx.power.railTotalFj(), b.ctx.power.railTotalFj());
    std::string detail;
    EXPECT_TRUE(a.ctx.power.conservationOk(&detail)) << detail;
    EXPECT_TRUE(b.ctx.power.conservationOk(&detail)) << detail;

    // Metrics and trace: nothing of one simulation in the other's.
    auto holdsOnly = [](SimContext &ctx, char own, char other) {
        bool sawOwn = false;
        for (const auto &s : ctx.metrics.snapshot().scalars) {
            EXPECT_NE(s.name.front(), other) << s.name;
            sawOwn |= s.name.front() == own;
        }
        EXPECT_TRUE(sawOwn);
        EXPECT_GT(ctx.trace.size(), 0u);
        const obs::Interner &in = obs::interner();
        ctx.trace.forEach([&](std::uint64_t, const obs::TraceRecord &r) {
            if (r.kind != obs::RecKind::End) {
                EXPECT_NE(in.label(r.track).front(), other)
                    << in.label(r.track);
            }
        });
    };
    holdsOnly(a.ctx, 'a', 'b');
    holdsOnly(b.ctx, 'b', 'a');
}

} // namespace
