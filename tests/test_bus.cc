/**
 * @file
 * Channel bus, PHY, and trace tests: segment timing, atomicity, CE
 * routing, gang conflicts, phase calibration, and mode checking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "chan/bus.hh"
#include "obs/sim_context.hh"

using namespace babol;
using namespace babol::chan;
using namespace babol::nand;
using namespace babol::time_literals;

namespace {

struct BusRig
{
    SimContext ctx;
    EventQueue eq{ctx};
    PackageConfig cfg = hynixPackage();
    std::vector<std::unique_ptr<Package>> pkgs;
    std::unique_ptr<ChannelBus> bus;

    explicit BusRig(std::uint32_t chips = 2, std::uint32_t rate = 200,
                    bool ddr = true)
    {
        bus = std::make_unique<ChannelBus>(eq, "bus", cfg.timing, rate);
        for (std::uint32_t i = 0; i < chips; ++i) {
            pkgs.push_back(std::make_unique<Package>(
                eq, strfmt("pkg%u", i), cfg, 100 + i));
            bus->attach(pkgs.back().get());
            if (ddr) {
                pkgs.back()->lun(0).bootstrapInterface(
                    DataInterface::Nvddr2, rate);
            }
        }
        if (ddr)
            bus->phy().setMode(DataInterface::Nvddr2);
    }

    /** Issue and run to completion, returning the captured bytes. */
    SegmentResult
    runSegment(Segment seg)
    {
        SegmentResult out;
        bool done = false;
        bus->issue(std::move(seg), [&](SegmentResult r) {
            out = std::move(r);
            done = true;
        });
        eq.run();
        EXPECT_TRUE(done);
        return out;
    }

    /** Arm the auditor in collector mode (reports, never throws). */
    void
    armCollector()
    {
        obs::audit::Auditor::Config cfg;
        cfg.throwOnDiagnostic = false;
        ctx.audit.arm(cfg);
    }

    /** READ of (block 0, page 0) on chip 0, then tR until it lands. */
    void
    loadErasedPage()
    {
        Segment latch;
        latch.ceMask = 1;
        latch.label = "read.ca";
        latch.items.push_back(SegmentItem::command(opcode::kRead1));
        latch.items.push_back(SegmentItem::address(
            encodeColRow(cfg.geometry, 0, {0, 0, 0})));
        latch.items.push_back(SegmentItem::command(opcode::kRead2));
        runSegment(std::move(latch));
    }

    /** A data-out of @p bytes from the loaded page, on chip mask @p ce. */
    Segment
    pageOutSegment(std::uint32_t ce, std::uint32_t bytes)
    {
        Segment seg;
        seg.ceMask = ce;
        seg.label = "page out";
        SegmentItem out = SegmentItem::dataOut(bytes);
        out.preDelay = cfg.timing.tRr;
        seg.items.push_back(out);
        return seg;
    }

    /** A READ STATUS segment for chip mask @p ce. */
    static Segment
    statusSegment(std::uint32_t ce)
    {
        Segment seg;
        seg.ceMask = ce;
        seg.label = "status";
        seg.items.push_back(SegmentItem::command(opcode::kReadStatus));
        SegmentItem out = SegmentItem::dataOut(1);
        out.preDelay = hynixPackage().timing.tWhr;
        seg.items.push_back(out);
        return seg;
    }
};

TEST(Phy, CycleTimesFollowMode)
{
    Phy phy(hynixPackage().timing, 200);
    EXPECT_EQ(phy.mode(), DataInterface::Sdr);
    Tick sdr_cmd = phy.commandCycle();
    phy.setMode(DataInterface::Nvddr2);
    EXPECT_LT(phy.commandCycle(), sdr_cmd);
}

TEST(Phy, DataBurstScalesWithRate)
{
    Phy phy100(hynixPackage().timing, 100);
    Phy phy200(hynixPackage().timing, 200);
    phy100.setMode(DataInterface::Nvddr2);
    phy200.setMode(DataInterface::Nvddr2);

    Tick t100 = phy100.dataBurst(16384);
    Tick t200 = phy200.dataBurst(16384);
    // 16384 transfers: ~164 us at 100 MT/s, ~82 us at 200 MT/s (plus
    // fixed preamble), so close to but under a 2x ratio.
    EXPECT_GT(t100, t200);
    EXPECT_NEAR(static_cast<double>(t100) / t200, 2.0, 0.1);

    // Full page + parity at 100 MT/s lands on Table I's 185 us.
    EXPECT_NEAR(ticks::toUs(phy100.dataBurst(18256)), 185.0, 2.0);
}

TEST(Phy, SdrBurstsAreSlow)
{
    Phy phy(hynixPackage().timing, 200);
    // SDR boot mode: one slow cycle per byte.
    EXPECT_GT(phy.dataBurst(256), 256 * 40_ns);
}

TEST(Bus, SegmentDeliversLatchesInOrder)
{
    BusRig rig(1);
    // RESET via raw segment; the LUN goes busy -> decode worked.
    Segment seg;
    seg.ceMask = 1;
    seg.label = "reset";
    seg.items.push_back(SegmentItem::command(opcode::kReset));
    rig.runSegment(std::move(seg));
    // After running the queue, the reset completed.
    EXPECT_TRUE(rig.pkgs[0]->lun(0).ready());
}

TEST(Bus, StatusSegmentReadsStatusByte)
{
    BusRig rig(1);
    SegmentResult r = rig.runSegment(BusRig::statusSegment(1));
    ASSERT_EQ(r.dataOut.size(), 1u);
    EXPECT_TRUE(r.dataOut[0] & status::kRdy);
}

TEST(Bus, DoubleIssuePanics)
{
    BusRig rig(1);
    rig.bus->issue(BusRig::statusSegment(1), [](SegmentResult) {});
    EXPECT_TRUE(rig.bus->busy());
    EXPECT_THROW(rig.bus->issue(BusRig::statusSegment(1),
                                [](SegmentResult) {}),
                 SimPanic);
    rig.eq.run();
    EXPECT_FALSE(rig.bus->busy());
}

TEST(Bus, CeMaskRoutesToSelectedPackageOnly)
{
    BusRig rig(2);
    // Reset only chip 1; chip 0 must not see the command.
    Segment seg;
    seg.ceMask = 0b10;
    seg.label = "reset c1";
    seg.items.push_back(SegmentItem::command(opcode::kReset));
    rig.runSegment(std::move(seg));
    // chip1 went busy and completed a reset; chip0 never decoded one.
    // (Observable via busyUntil: chip0's stays 0.)
    EXPECT_EQ(rig.pkgs[0]->lun(0).busyUntil(), 0u);
    EXPECT_GT(rig.pkgs[1]->lun(0).busyUntil(), 0u);
}

TEST(Bus, GangBroadcastReachesAllSelected)
{
    BusRig rig(2);
    Segment seg;
    seg.ceMask = 0b11;
    seg.label = "gang reset";
    seg.items.push_back(SegmentItem::command(opcode::kReset));
    rig.runSegment(std::move(seg));
    EXPECT_GT(rig.pkgs[0]->lun(0).busyUntil(), 0u);
    EXPECT_GT(rig.pkgs[1]->lun(0).busyUntil(), 0u);
}

TEST(Bus, GangDataOutConflictPanics)
{
    BusRig rig(2);
    Segment seg = BusRig::statusSegment(0b11); // two chips driving DQ
    bool done = false;
    rig.bus->issue(std::move(seg), [&](SegmentResult) { done = true; });
    EXPECT_THROW(rig.eq.run(), SimPanic);
    EXPECT_FALSE(done);
}

TEST(Bus, TimerItemsOccupyTheBus)
{
    BusRig rig(1);
    Segment seg;
    seg.ceMask = 1;
    seg.label = "pause";
    SegmentItem pause;
    pause.preDelay = 5_us;
    seg.items.push_back(pause);
    Tick t0 = rig.eq.now();
    rig.runSegment(std::move(seg));
    EXPECT_GE(rig.eq.now() - t0, 5_us);
}

TEST(Bus, ModeMismatchPanics)
{
    // PHY in DDR but the package still boots in SDR.
    BusRig rig(1, 200, /*ddr=*/false);
    rig.bus->phy().setMode(DataInterface::Nvddr2);
    Segment seg = BusRig::statusSegment(1);
    rig.bus->issue(std::move(seg), [](SegmentResult) {});
    EXPECT_THROW(rig.eq.run(), SimPanic);
}

TEST(Bus, PhaseSkewCorruptsUntilAdjusted)
{
    BusRig rig(1);
    Tick window = rig.bus->phy().phaseWindow();
    rig.bus->setPhaseSkew(0, 4 * window);
    EXPECT_FALSE(rig.bus->phaseOk(0));

    SegmentResult r = rig.runSegment(BusRig::statusSegment(1));
    // Byte 0 corrupted (XOR 0xFF of the ready status).
    EXPECT_FALSE(r.dataOut.at(0) & status::kRdy);

    rig.bus->setPhaseAdjust(0, 4 * window);
    EXPECT_TRUE(rig.bus->phaseOk(0));
    r = rig.runSegment(BusRig::statusSegment(1));
    EXPECT_TRUE(r.dataOut.at(0) & status::kRdy);
}

TEST(Bus, DataOutWithNoChipEnabledCapturesZeros)
{
    // The capture buffer is reused segment after segment: a data-out
    // that nothing drives must read back 0s, not the bytes the previous
    // segment left behind.
    BusRig rig(1);
    rig.armCollector();
    rig.loadErasedPage();
    SegmentResult page = rig.runSegment(rig.pageOutSegment(1, 512));
    ASSERT_EQ(page.dataOut.size(), 512u);
    EXPECT_EQ(page.dataOut.front(), 0xFF); // erased page

    SegmentResult none = rig.runSegment(rig.pageOutSegment(0, 512));
    EXPECT_EQ(none.dataOut, std::vector<std::uint8_t>(512, 0));
    EXPECT_GE(rig.ctx.audit.diagnostics().size(), 1u); // ce-overlap
}

TEST(Bus, DataOutItemsConcatenateInOrder)
{
    // Two DataOut items in one segment land back to back, in order:
    // READ ID's "ONFI" signature split 1 + 3.
    BusRig rig(1);
    Segment seg;
    seg.ceMask = 1;
    seg.label = "read id";
    seg.items.push_back(SegmentItem::command(opcode::kReadId));
    seg.items.push_back(SegmentItem::address({id_address::kOnfi}));
    SegmentItem first = SegmentItem::dataOut(1);
    first.preDelay = rig.cfg.timing.tWhr;
    seg.items.push_back(first);
    seg.items.push_back(SegmentItem::dataOut(3));
    SegmentResult r = rig.runSegment(std::move(seg));
    EXPECT_EQ(std::string(r.dataOut.begin(), r.dataOut.end()), "ONFI");
}

TEST(Bus, CompletionSeesOnlyItsOwnSegmentsBytes)
{
    BusRig rig(1);
    rig.loadErasedPage();
    SegmentResult page = rig.runSegment(rig.pageOutSegment(1, 4096));
    ASSERT_EQ(page.dataOut.size(), 4096u);

    // A one-byte status read after a 4 KiB capture hands its completion
    // exactly one byte, and a segment without data-out hands none.
    SegmentResult status = rig.runSegment(BusRig::statusSegment(1));
    ASSERT_EQ(status.dataOut.size(), 1u);
    EXPECT_TRUE(status.dataOut[0] & status::kRdy);

    Segment reset;
    reset.ceMask = 1;
    reset.label = "reset";
    reset.items.push_back(SegmentItem::command(opcode::kReset));
    EXPECT_TRUE(rig.runSegment(std::move(reset)).dataOut.empty());
}

TEST(Bus, PhaseCheckUsesThePackageDrivingDq)
{
    // With two CEs enabled (reported under the auditor) the lowest
    // selected package drives DQ, so its sampling phase is the one that
    // decides corruption — not the last package in the mask.
    BusRig clean(2);
    const std::uint8_t status =
        clean.runSegment(BusRig::statusSegment(0b01)).dataOut.at(0);

    BusRig rig(2);
    rig.armCollector();
    Tick window = rig.bus->phy().phaseWindow();
    rig.bus->setPhaseSkew(0, 4 * window);
    ASSERT_FALSE(rig.bus->phaseOk(0));
    ASSERT_TRUE(rig.bus->phaseOk(1));
    SegmentResult r = rig.runSegment(BusRig::statusSegment(0b11));
    ASSERT_EQ(r.dataOut.size(), 1u);
    EXPECT_EQ(r.dataOut[0], static_cast<std::uint8_t>(status ^ 0xFF));
}

TEST(Bus, StatsAccumulate)
{
    BusRig rig(1);
    rig.runSegment(BusRig::statusSegment(1));
    rig.runSegment(BusRig::statusSegment(1));
    EXPECT_EQ(rig.bus->segmentsIssued(), 2u);
    EXPECT_EQ(rig.bus->dataBytesOut(), 2u);
    EXPECT_GT(rig.bus->busyTicks(), 0u);
}

TEST(Trace, RecordsAndQueries)
{
    BusRig rig(1);
    rig.bus->trace().setEnabled(true);
    rig.runSegment(BusRig::statusSegment(1));
    rig.runSegment(BusRig::statusSegment(1));

    EXPECT_EQ(rig.bus->trace().events().size(), 2u);
    EXPECT_EQ(rig.bus->trace().find("status").size(), 2u);
    EXPECT_EQ(rig.bus->trace().find("nothing").size(), 0u);
    EXPECT_EQ(rig.bus->trace().periodsOf("status").size(), 1u);
    EXPECT_FALSE(rig.bus->trace().renderTimeline().empty());

    double busy = rig.bus->trace().busyFraction(0, rig.eq.now());
    EXPECT_GT(busy, 0.0);
    EXPECT_LE(busy, 1.0);
}

TEST(Trace, VcdExportIsWellFormed)
{
    BusRig rig(2);
    rig.bus->trace().setEnabled(true);
    rig.runSegment(BusRig::statusSegment(0b01));
    Segment gang;
    gang.ceMask = 0b11;
    gang.label = "gang reset";
    gang.items.push_back(SegmentItem::command(opcode::kReset));
    rig.runSegment(std::move(gang));

    std::ostringstream os;
    rig.bus->trace().writeVcd(os, "ch0");
    std::string vcd = os.str();
    EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
    EXPECT_NE(vcd.find("$var wire 1 ! bus_busy"), std::string::npos);
    EXPECT_NE(vcd.find("b00000011 \""), std::string::npos); // gang CE
    EXPECT_NE(vcd.find("sgang_reset #"), std::string::npos);
    // Busy toggles down after each of the two segments.
    EXPECT_GE(static_cast<int>(std::count(vcd.begin(), vcd.end(), '!')),
              4);
}

TEST(Trace, DisabledByDefault)
{
    BusRig rig(1);
    rig.runSegment(BusRig::statusSegment(1));
    EXPECT_TRUE(rig.bus->trace().events().empty());
}

} // namespace
