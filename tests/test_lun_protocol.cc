/**
 * @file
 * ONFI protocol tests at the LUN level, driven through real bus
 * segments: identification, features, read/program/erase dialogs,
 * cache and multi-plane operations, suspend/resume, the status-output
 * overlay, and the timing-guard panics that keep controllers honest.
 */

#include <gtest/gtest.h>

#include "chan/bus.hh"
#include "nand/param_page.hh"

using namespace babol;
using namespace babol::chan;
using namespace babol::nand;
using namespace babol::time_literals;

namespace {

/** One chip on one bus, already in NV-DDR2 like the experiments. */
struct LunRig
{
    EventQueue eq;
    PackageConfig cfg = hynixPackage();
    std::unique_ptr<Package> pkg;
    std::unique_ptr<ChannelBus> bus;

    LunRig()
    {
        bus = std::make_unique<ChannelBus>(eq, "bus", cfg.timing, 200);
        pkg = std::make_unique<Package>(eq, "pkg", cfg, 42);
        bus->attach(pkg.get());
        pkg->lun(0).bootstrapInterface(DataInterface::Nvddr2, 200);
        bus->phy().setMode(DataInterface::Nvddr2);
    }

    Lun &lun() { return pkg->lun(0); }

    /**
     * Issue one segment and step the simulation until it completes —
     * deliberately NOT draining the queue, so long array operations
     * (erase, program) stay in flight across segments as on real
     * hardware.
     */
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

    /** Poll status until RDY; returns the final status byte. */
    std::uint8_t
    pollReady()
    {
        for (int i = 0; i < 10000; ++i) {
            Segment seg;
            seg.label = "poll";
            seg.items.push_back(SegmentItem::command(opcode::kReadStatus));
            SegmentItem out = SegmentItem::dataOut(1);
            out.preDelay = cfg.timing.tWhr;
            seg.items.push_back(out);
            std::uint8_t st = run(std::move(seg)).dataOut.at(0);
            if (st & status::kRdy)
                return st;
        }
        ADD_FAILURE() << "LUN never turned ready";
        return 0;
    }

    Segment
    readLatch(std::uint32_t block, std::uint32_t page,
              std::uint32_t col = 0, bool pslc = false)
    {
        Segment seg;
        seg.label = "read.ca";
        if (pslc)
            seg.items.push_back(
                SegmentItem::command(opcode::kVendorSlcPrefix));
        seg.items.push_back(SegmentItem::command(opcode::kRead1));
        seg.items.push_back(SegmentItem::address(
            encodeColRow(cfg.geometry, col, {0, block, page})));
        seg.items.push_back(SegmentItem::command(opcode::kRead2));
        seg.postDelay = cfg.timing.tWb;
        return seg;
    }

    Segment
    transfer(std::uint32_t col, std::uint32_t bytes)
    {
        Segment seg;
        seg.label = "read.xfer";
        seg.items.push_back(
            SegmentItem::command(opcode::kChangeReadCol1));
        seg.items.push_back(
            SegmentItem::address(encodeColumn(cfg.geometry, col)));
        seg.items.push_back(
            SegmentItem::command(opcode::kChangeReadCol2));
        SegmentItem out = SegmentItem::dataOut(bytes);
        out.preDelay = cfg.timing.tCcs;
        seg.items.push_back(out);
        return seg;
    }

    /** Raw program of @p data at (block, page), polling to completion. */
    std::uint8_t
    program(std::uint32_t block, std::uint32_t page,
            const std::vector<std::uint8_t> &data, bool pslc = false)
    {
        Segment seg;
        seg.label = "program";
        if (pslc)
            seg.items.push_back(
                SegmentItem::command(opcode::kVendorSlcPrefix));
        seg.items.push_back(SegmentItem::command(opcode::kProgram1));
        seg.items.push_back(SegmentItem::address(
            encodeColRow(cfg.geometry, 0, {0, block, page})));
        seg.dataIn(data, cfg.timing.tAdl);
        seg.items.push_back(SegmentItem::command(opcode::kProgram2));
        seg.postDelay = cfg.timing.tWb;
        run(std::move(seg));
        return pollReady();
    }

    /** Raw erase, polling to completion. */
    std::uint8_t
    erase(std::uint32_t block, bool slc = false)
    {
        Segment seg;
        seg.label = "erase";
        if (slc)
            seg.items.push_back(
                SegmentItem::command(opcode::kVendorSlcPrefix));
        seg.items.push_back(SegmentItem::command(opcode::kErase1));
        seg.items.push_back(SegmentItem::address(
            encodeRow(cfg.geometry, {0, block, 0})));
        seg.items.push_back(SegmentItem::command(opcode::kErase2));
        seg.postDelay = cfg.timing.tWb;
        run(std::move(seg));
        return pollReady();
    }
};

TEST(LunProtocol, ReadIdJedecAndOnfi)
{
    LunRig rig;
    Segment seg;
    seg.label = "read id";
    seg.items.push_back(SegmentItem::command(opcode::kReadId));
    seg.items.push_back(SegmentItem::address({id_address::kOnfi}));
    SegmentItem out = SegmentItem::dataOut(4);
    out.preDelay = rig.cfg.timing.tWhr;
    seg.items.push_back(out);
    SegmentResult r = rig.run(std::move(seg));
    EXPECT_EQ(std::string(r.dataOut.begin(), r.dataOut.end()), "ONFI");

    Segment seg2;
    seg2.label = "read id jedec";
    seg2.items.push_back(SegmentItem::command(opcode::kReadId));
    seg2.items.push_back(SegmentItem::address({id_address::kJedec}));
    SegmentItem out2 = SegmentItem::dataOut(2);
    out2.preDelay = rig.cfg.timing.tWhr;
    seg2.items.push_back(out2);
    r = rig.run(std::move(seg2));
    EXPECT_EQ(r.dataOut.at(0), rig.cfg.jedecManufacturer);
    EXPECT_EQ(r.dataOut.at(1), rig.cfg.jedecDevice);
}

TEST(LunProtocol, FullReadDialogReturnsProgrammedData)
{
    LunRig rig;
    std::vector<std::uint8_t> data(rig.cfg.geometry.pageTotalBytes());
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i % 251);

    EXPECT_FALSE(rig.erase(5) & status::kFail);
    EXPECT_FALSE(rig.program(5, 0, data) & status::kFail);

    rig.run(rig.readLatch(5, 0));
    rig.pollReady();
    SegmentResult r = rig.run(rig.transfer(0, 1024));

    // Compare modulo the (rare) injected bit errors.
    const auto &flips = rig.lun().cacheRegisterFlips();
    std::vector<std::uint8_t> expect(data.begin(), data.begin() + 1024);
    for (std::uint32_t bit : flips)
        if (bit / 8 < 1024)
            expect[bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));
    EXPECT_EQ(r.dataOut, expect);
}

TEST(LunProtocol, ColumnPointerAdvancesAcrossBursts)
{
    LunRig rig;
    std::vector<std::uint8_t> data(2048);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i % 256);
    rig.erase(6);
    rig.program(6, 0, data);

    rig.run(rig.readLatch(6, 0));
    rig.pollReady();
    SegmentResult first = rig.run(rig.transfer(0, 4));

    // A second data-out without a column change continues where the
    // first stopped (auto-increment).
    Segment seg;
    seg.label = "continue";
    seg.items.push_back(SegmentItem::dataOut(4));
    SegmentResult second = rig.run(std::move(seg));

    EXPECT_EQ(first.dataOut, (std::vector<std::uint8_t>{0, 1, 2, 3}));
    EXPECT_EQ(second.dataOut, (std::vector<std::uint8_t>{4, 5, 6, 7}));
}

TEST(LunProtocol, StatusOverlayPreservesOutputSource)
{
    LunRig rig;
    std::vector<std::uint8_t> data(64, 0xD7);
    rig.erase(7);
    rig.program(7, 0, data);
    rig.run(rig.readLatch(7, 0));
    rig.pollReady();
    rig.run(rig.transfer(0, 4));

    // Status poll, then 00h re-enable: register output resumes at the
    // current column pointer.
    rig.pollReady();
    Segment seg;
    seg.label = "re-enable";
    seg.items.push_back(SegmentItem::command(opcode::kRead1));
    SegmentItem out = SegmentItem::dataOut(4);
    out.preDelay = rig.cfg.timing.tWhr;
    seg.items.push_back(out);
    SegmentResult r = rig.run(std::move(seg));
    EXPECT_EQ(r.dataOut, std::vector<std::uint8_t>(4, 0xD7));
}

TEST(LunProtocol, ProgramToUnerasedBlockSetsFail)
{
    LunRig rig;
    std::vector<std::uint8_t> data(32, 1);
    std::uint8_t st = rig.program(9, 3, data); // page 3, never erased
    EXPECT_TRUE(st & status::kFail);
    // A later, correct program clears FAIL (cleared at 80h latch).
    rig.erase(9);
    st = rig.program(9, 0, data);
    EXPECT_FALSE(st & status::kFail);
}

TEST(LunProtocol, PslcPrefixSpeedsUpAndMarksBlocks)
{
    LunRig rig;
    // SLC erase marks the block.
    EXPECT_FALSE(rig.erase(11, true) & status::kFail);
    EXPECT_TRUE(rig.lun().array().isSlcBlock(11));

    std::vector<std::uint8_t> data(128, 0xEE);
    Tick t0 = rig.eq.now();
    rig.program(11, 0, data, true);
    Tick slc_prog = rig.eq.now() - t0;

    rig.erase(12, false);
    t0 = rig.eq.now();
    rig.program(12, 0, data, false);
    Tick tlc_prog = rig.eq.now() - t0;
    EXPECT_LT(slc_prog, tlc_prog / 2);

    // pSLC read: tR shortened on the SLC block.
    t0 = rig.eq.now();
    rig.run(rig.readLatch(11, 0, 0, true));
    rig.pollReady();
    Tick slc_read_wait = rig.eq.now() - t0;
    EXPECT_LT(slc_read_wait, 70_us); // ~40% of tR=100us + poll slack
}

TEST(LunProtocol, MultiPlaneReadLoadsBothPlanes)
{
    LunRig rig;
    std::vector<std::uint8_t> d0(64, 0x0A), d1(64, 0x0B);
    rig.erase(20); // plane 0
    rig.erase(21); // plane 1
    rig.program(20, 0, d0);
    rig.program(21, 0, d1);

    Segment seg;
    seg.label = "mp read";
    seg.items.push_back(SegmentItem::command(opcode::kRead1));
    seg.items.push_back(SegmentItem::address(
        encodeColRow(rig.cfg.geometry, 0, {0, 20, 0})));
    seg.items.push_back(SegmentItem::command(opcode::kReadMultiPlane));
    seg.items.push_back(SegmentItem::command(opcode::kRead1));
    seg.items.push_back(SegmentItem::address(
        encodeColRow(rig.cfg.geometry, 0, {0, 21, 0})));
    seg.items.push_back(SegmentItem::command(opcode::kRead2));
    seg.postDelay = rig.cfg.timing.tWb;
    rig.run(std::move(seg));
    rig.pollReady();

    // Select plane 0 via CHANGE READ COLUMN ENHANCED, then plane 1.
    auto select_and_read = [&](std::uint32_t block) {
        Segment sel;
        sel.label = "06/e0";
        sel.items.push_back(
            SegmentItem::command(opcode::kChangeReadColEnh));
        sel.items.push_back(SegmentItem::address(
            encodeColRow(rig.cfg.geometry, 0, {0, block, 0})));
        sel.items.push_back(
            SegmentItem::command(opcode::kChangeReadCol2));
        SegmentItem out = SegmentItem::dataOut(4);
        out.preDelay = rig.cfg.timing.tCcs;
        sel.items.push_back(out);
        return rig.run(std::move(sel)).dataOut;
    };
    EXPECT_EQ(select_and_read(20), std::vector<std::uint8_t>(4, 0x0A));
    EXPECT_EQ(select_and_read(21), std::vector<std::uint8_t>(4, 0x0B));
}

TEST(LunProtocol, EraseSuspendAllowsInterimReadThenResumes)
{
    LunRig rig;
    std::vector<std::uint8_t> data(64, 0x66);
    rig.erase(30);
    rig.program(30, 0, data);

    // Start a long erase on another block, then suspend it.
    Segment er;
    er.label = "erase.start";
    er.items.push_back(SegmentItem::command(opcode::kErase1));
    er.items.push_back(SegmentItem::address(
        encodeRow(rig.cfg.geometry, {0, 31, 0})));
    er.items.push_back(SegmentItem::command(opcode::kErase2));
    er.postDelay = rig.cfg.timing.tWb;
    rig.run(std::move(er));
    EXPECT_FALSE(rig.lun().ready());

    Segment sus;
    sus.label = "suspend";
    sus.items.push_back(SegmentItem::command(opcode::kVendorSuspend));
    sus.postDelay = rig.cfg.timing.tWb;
    rig.run(std::move(sus));
    std::uint8_t st = rig.pollReady();
    EXPECT_TRUE(st & status::kCsp);
    EXPECT_TRUE(rig.lun().suspended());

    // Interim read works while the erase is parked.
    rig.run(rig.readLatch(30, 0));
    rig.pollReady();
    SegmentResult r = rig.run(rig.transfer(0, 4));
    EXPECT_EQ(r.dataOut, std::vector<std::uint8_t>(4, 0x66));

    // Resume and finish the erase.
    Segment res;
    res.label = "resume";
    res.items.push_back(SegmentItem::command(opcode::kVendorResume));
    res.postDelay = rig.cfg.timing.tWb;
    rig.run(std::move(res));
    EXPECT_FALSE(rig.lun().ready());
    st = rig.pollReady();
    EXPECT_FALSE(st & status::kFail);
    EXPECT_FALSE(rig.lun().suspended());
    EXPECT_EQ(rig.lun().completedErases(), 2u);
}

TEST(LunProtocol, SetFeaturesReadRetryLevel)
{
    LunRig rig;
    Segment seg;
    seg.label = "set retry";
    seg.items.push_back(SegmentItem::command(opcode::kSetFeatures));
    seg.items.push_back(
        SegmentItem::address({feature::kVendorReadRetry}));
    const std::uint8_t params[] = {3, 0, 0, 0};
    seg.dataIn(params, rig.cfg.timing.tAdl);
    seg.postDelay = rig.cfg.timing.tWb;
    rig.run(std::move(seg));
    rig.pollReady();
    EXPECT_EQ(rig.lun().retryLevel(), 3u);

    // GET FEATURES reads it back.
    Segment get;
    get.label = "get retry";
    get.items.push_back(SegmentItem::command(opcode::kGetFeatures));
    get.items.push_back(
        SegmentItem::address({feature::kVendorReadRetry}));
    SegmentItem pause;
    pause.preDelay = rig.cfg.timing.tFeat * 2;
    get.items.push_back(pause);
    get.items.push_back(SegmentItem::dataOut(4));
    SegmentResult r = rig.run(std::move(get));
    EXPECT_EQ(r.dataOut.at(0), 3u);
}

TEST(LunProtocol, CacheReadPipelinesPages)
{
    LunRig rig;
    rig.erase(40);
    for (std::uint32_t p = 0; p < 3; ++p) {
        std::vector<std::uint8_t> data(64,
                                       static_cast<std::uint8_t>(0x10 + p));
        rig.program(40, p, data);
    }

    rig.run(rig.readLatch(40, 0));
    rig.pollReady();

    auto cache_cmd = [&](std::uint8_t cmd) {
        Segment seg;
        seg.label = "cache";
        seg.items.push_back(SegmentItem::command(cmd));
        seg.postDelay = rig.cfg.timing.tWb;
        rig.run(std::move(seg));
        rig.pollReady();
    };

    // 31h: page 0 moves to the cache register; page 1 pre-reads.
    cache_cmd(opcode::kReadCacheSeq);
    EXPECT_EQ(rig.run(rig.transfer(0, 4)).dataOut,
              std::vector<std::uint8_t>(4, 0x10));

    cache_cmd(opcode::kReadCacheSeq);
    EXPECT_EQ(rig.run(rig.transfer(0, 4)).dataOut,
              std::vector<std::uint8_t>(4, 0x11));

    cache_cmd(opcode::kReadCacheEnd);
    EXPECT_EQ(rig.run(rig.transfer(0, 4)).dataOut,
              std::vector<std::uint8_t>(4, 0x12));
    EXPECT_EQ(rig.lun().completedReads(), 3u);
}

TEST(LunProtocol, TimingGuardTadlViolationPanics)
{
    LunRig rig;
    Segment seg;
    seg.label = "bad program";
    seg.items.push_back(SegmentItem::command(opcode::kProgram1));
    seg.items.push_back(SegmentItem::address(
        encodeColRow(rig.cfg.geometry, 0, {0, 50, 0})));
    // Data burst with NO tADL wait: the LUN must reject it. (With the
    // conformance auditor armed the bus-side AC rule panics already at
    // issue(); unarmed, the LUN guard fires during the run.)
    const std::uint8_t bytes[] = {1, 2, 3};
    seg.dataIn(bytes);
    seg.ceMask = 1;
    EXPECT_THROW(
        {
            rig.bus->issue(std::move(seg), [](SegmentResult) {});
            rig.eq.run();
        },
        SimPanic);
}

TEST(LunProtocol, TimingGuardTwhrViolationPanics)
{
    LunRig rig;
    Segment seg;
    seg.label = "bad status";
    seg.items.push_back(SegmentItem::command(opcode::kReadStatus));
    seg.items.push_back(SegmentItem::dataOut(1)); // no tWHR
    seg.ceMask = 1;
    EXPECT_THROW(
        {
            rig.bus->issue(std::move(seg), [](SegmentResult) {});
            rig.eq.run();
        },
        SimPanic);
}

TEST(LunProtocol, BusyLunRejectsNewOperations)
{
    LunRig rig;
    Segment er;
    er.label = "erase.start";
    er.items.push_back(SegmentItem::command(opcode::kErase1));
    er.items.push_back(SegmentItem::address(
        encodeRow(rig.cfg.geometry, {0, 51, 0})));
    er.items.push_back(SegmentItem::command(opcode::kErase2));
    er.postDelay = rig.cfg.timing.tWb;
    rig.run(std::move(er));
    ASSERT_FALSE(rig.lun().ready());

    Segment read;
    read.label = "illegal read";
    read.items.push_back(SegmentItem::command(opcode::kRead1));
    read.ceMask = 1;
    rig.bus->issue(std::move(read), [](SegmentResult) {});
    EXPECT_THROW(rig.eq.run(), SimPanic);
}

TEST(LunProtocol, DataOutWithNothingToSayPanics)
{
    LunRig rig;
    Segment seg;
    seg.label = "orphan dout";
    seg.items.push_back(SegmentItem::dataOut(1));
    seg.ceMask = 1;
    rig.bus->issue(std::move(seg), [](SegmentResult) {});
    EXPECT_THROW(rig.eq.run(), SimPanic);
}

TEST(LunProtocol, ResetWhileBusyAbortsOperation)
{
    LunRig rig;
    Segment er;
    er.label = "erase.start";
    er.items.push_back(SegmentItem::command(opcode::kErase1));
    er.items.push_back(SegmentItem::address(
        encodeRow(rig.cfg.geometry, {0, 52, 0})));
    er.items.push_back(SegmentItem::command(opcode::kErase2));
    er.postDelay = rig.cfg.timing.tWb;
    rig.run(std::move(er));
    ASSERT_FALSE(rig.lun().ready());

    Segment rst;
    rst.label = "reset";
    rst.items.push_back(SegmentItem::command(opcode::kReset));
    rst.postDelay = rig.cfg.timing.tWb;
    rig.run(std::move(rst));
    std::uint8_t st = rig.pollReady();
    EXPECT_TRUE(st & status::kRdy);
    // The erase never completed.
    EXPECT_EQ(rig.lun().completedErases(), 0u);
}

TEST(LunProtocol, ReadUniqueIdIsStablePerChip)
{
    LunRig rig;
    auto read_uid = [&] {
        Segment seg;
        seg.label = "uid";
        seg.items.push_back(SegmentItem::command(opcode::kReadUniqueId));
        seg.items.push_back(SegmentItem::address({0x00}));
        SegmentItem pause;
        pause.preDelay = rig.cfg.timing.tRParam * 2;
        seg.items.push_back(pause);
        seg.items.push_back(SegmentItem::dataOut(16));
        return rig.run(std::move(seg)).dataOut;
    };
    auto a = read_uid();
    auto b = read_uid();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 16u);
}

TEST(LunProtocol, ParamPageViaBusDecodes)
{
    LunRig rig;
    Segment seg;
    seg.label = "param";
    seg.items.push_back(SegmentItem::command(opcode::kReadParamPage));
    seg.items.push_back(SegmentItem::address({0x00}));
    SegmentItem pause;
    pause.preDelay = rig.cfg.timing.tRParam + rig.cfg.timing.tRParam / 4;
    seg.items.push_back(pause);
    seg.items.push_back(SegmentItem::dataOut(kParamPageBytes));
    SegmentResult r = rig.run(std::move(seg));
    auto info = decodeParamPage(r.dataOut);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->geometry, rig.cfg.geometry);
}

} // namespace
