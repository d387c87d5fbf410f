/**
 * @file
 * Multi-LUN package protocol tests: two dies behind one chip enable,
 * addressed by the LUN bit of the row address, polled with READ STATUS
 * ENHANCED (78h), and interleaved so one die reads while the other
 * erases — the intra-package parallelism layer of §II.
 */

#include <gtest/gtest.h>

#include "chan/bus.hh"

using namespace babol;
using namespace babol::chan;
using namespace babol::nand;

namespace {

struct DualLunRig
{
    EventQueue eq;
    PackageConfig cfg;
    std::unique_ptr<Package> pkg;
    std::unique_ptr<ChannelBus> bus;

    DualLunRig()
    {
        cfg = hynixPackage();
        cfg.geometry.lunsPerPackage = 2;
        bus = std::make_unique<ChannelBus>(eq, "bus", cfg.timing, 200);
        pkg = std::make_unique<Package>(eq, "pkg", cfg, 7);
        bus->attach(pkg.get());
        for (std::uint32_t l = 0; l < 2; ++l)
            pkg->lun(l).bootstrapInterface(DataInterface::Nvddr2, 200);
        bus->phy().setMode(DataInterface::Nvddr2);
    }

    SegmentResult
    run(Segment seg)
    {
        seg.ceMask = 1;
        SegmentResult out;
        bool done = false;
        bus->issue(std::move(seg), [&](SegmentResult r) {
            out = std::move(r);
            done = true;
        });
        while (!done && eq.step()) {
        }
        EXPECT_TRUE(done);
        return out;
    }

    /** READ STATUS ENHANCED poll of one LUN. */
    std::uint8_t
    statusEnhanced(std::uint32_t lun)
    {
        Segment seg;
        seg.label = "78h";
        seg.items.push_back(
            SegmentItem::command(opcode::kReadStatusEnhanced));
        seg.items.push_back(SegmentItem::address(
            encodeRow(cfg.geometry, {lun, 0, 0})));
        SegmentItem out = SegmentItem::dataOut(1);
        out.preDelay = cfg.timing.tWhr;
        seg.items.push_back(out);
        return run(std::move(seg)).dataOut.at(0);
    }

    std::uint8_t
    pollReadyEnhanced(std::uint32_t lun)
    {
        for (int i = 0; i < 10000; ++i) {
            std::uint8_t st = statusEnhanced(lun);
            if (st & status::kRdy)
                return st;
        }
        ADD_FAILURE() << "lun " << lun << " never ready";
        return 0;
    }

    void
    eraseOn(std::uint32_t lun, std::uint32_t block)
    {
        Segment seg;
        seg.label = "erase";
        seg.items.push_back(SegmentItem::command(opcode::kErase1));
        seg.items.push_back(SegmentItem::address(
            encodeRow(cfg.geometry, {lun, block, 0})));
        seg.items.push_back(SegmentItem::command(opcode::kErase2));
        seg.postDelay = cfg.timing.tWb;
        run(std::move(seg));
    }

    void
    programOn(std::uint32_t lun, std::uint32_t block,
              const std::vector<std::uint8_t> &data)
    {
        Segment seg;
        seg.label = "program";
        seg.items.push_back(SegmentItem::command(opcode::kProgram1));
        seg.items.push_back(SegmentItem::address(
            encodeColRow(cfg.geometry, 0, {lun, block, 0})));
        seg.dataIn(data, cfg.timing.tAdl);
        seg.items.push_back(SegmentItem::command(opcode::kProgram2));
        seg.postDelay = cfg.timing.tWb;
        run(std::move(seg));
        pollReadyEnhanced(lun);
    }
};

TEST(MultiLun, PlainReadStatusIsAmbiguousAndPanics)
{
    DualLunRig rig;
    Segment seg;
    seg.ceMask = 1;
    seg.label = "70h";
    seg.items.push_back(SegmentItem::command(opcode::kReadStatus));
    rig.bus->issue(std::move(seg), [](SegmentResult) {});
    EXPECT_THROW(rig.eq.run(), SimPanic);
}

TEST(MultiLun, EnhancedStatusTargetsOneDie)
{
    DualLunRig rig;
    rig.eraseOn(1, 3);
    // Immediately after the confirm: LUN 1 busy, LUN 0 idle.
    EXPECT_FALSE(rig.statusEnhanced(1) & status::kRdy);
    EXPECT_TRUE(rig.statusEnhanced(0) & status::kRdy);
    rig.pollReadyEnhanced(1);
}

TEST(MultiLun, OperationsAddressTheRightDie)
{
    DualLunRig rig;
    rig.eraseOn(0, 5);
    rig.pollReadyEnhanced(0);
    EXPECT_EQ(rig.pkg->lun(0).completedErases(), 1u);
    EXPECT_EQ(rig.pkg->lun(1).completedErases(), 0u);
}

TEST(MultiLun, InterleavedReadWhileOtherDieErases)
{
    DualLunRig rig;
    std::vector<std::uint8_t> data(64, 0x99);
    rig.eraseOn(0, 2);
    rig.pollReadyEnhanced(0);
    rig.programOn(0, 2, data);

    // Start a long erase on die 1, then read die 0 while it runs.
    rig.eraseOn(1, 4);
    ASSERT_FALSE(rig.pkg->lun(1).ready());

    Segment latch;
    latch.label = "read.ca";
    latch.items.push_back(SegmentItem::command(opcode::kRead1));
    latch.items.push_back(SegmentItem::address(
        encodeColRow(rig.cfg.geometry, 0, {0, 2, 0})));
    latch.items.push_back(SegmentItem::command(opcode::kRead2));
    latch.postDelay = rig.cfg.timing.tWb;
    rig.run(std::move(latch));
    rig.pollReadyEnhanced(0);

    Segment xfer;
    xfer.label = "read.xfer";
    xfer.items.push_back(SegmentItem::command(opcode::kChangeReadCol1));
    xfer.items.push_back(
        SegmentItem::address(encodeColumn(rig.cfg.geometry, 0)));
    xfer.items.push_back(SegmentItem::command(opcode::kChangeReadCol2));
    SegmentItem out = SegmentItem::dataOut(4);
    out.preDelay = rig.cfg.timing.tCcs;
    xfer.items.push_back(out);
    SegmentResult r = rig.run(std::move(xfer));
    EXPECT_EQ(r.dataOut, std::vector<std::uint8_t>(4, 0x99));

    // Die 1 is still erasing; finish it.
    EXPECT_FALSE(rig.pkg->lun(1).ready());
    std::uint8_t st = rig.pollReadyEnhanced(1);
    EXPECT_FALSE(st & status::kFail);
}

TEST(MultiLun, CompositeBusyPinCoversBothDies)
{
    DualLunRig rig;
    rig.eraseOn(1, 6);
    // The package-level R/B# (busyUntil) reflects the busy die.
    EXPECT_GT(rig.pkg->busyUntil(), rig.eq.now());
    rig.pollReadyEnhanced(1);
    EXPECT_EQ(rig.pkg->busyUntil(), 0u);
}

} // namespace
