/**
 * @file
 * Cross-flavour controller tests: both software environments must
 * execute the same requests correctly, and their cost profiles must
 * order the way the paper reports (RTOS polls faster than coroutines).
 */

#include <gtest/gtest.h>

#include "flavor_param.hh"
#include "ssd/ssd.hh"

using namespace babol;
using namespace babol::core;

namespace {

class ControllerTest : public testing::TestWithParam<Flavor>
{
  protected:
    void
    SetUp() override
    {
        ChannelConfig cfg;
        cfg.package = nand::hynixPackage();
        cfg.chips = 4;
        sys_ = std::make_unique<ChannelSystem>(eq_, "ssd", cfg);
        ctrl_ = ssd::makeController(eq_, factoryName(GetParam()), "ctrl",
                                    *sys_);
    }

    OpResult
    runOne(FlashRequest req)
    {
        OpResult out;
        bool done = false;
        req.onComplete = [&](OpResult r) {
            out = r;
            done = true;
        };
        ctrl_->submit(std::move(req));
        eq_.run();
        EXPECT_TRUE(done);
        return out;
    }

    EventQueue eq_;
    std::unique_ptr<ChannelSystem> sys_;
    std::unique_ptr<ChannelController> ctrl_;
};

TEST_P(ControllerTest, RoundTripPreservesData)
{
    const std::uint32_t page = sys_->pageDataBytes();
    std::vector<std::uint8_t> payload(page);
    for (std::uint32_t i = 0; i < page; ++i)
        payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
    sys_->dram().write(0, payload);

    FlashRequest erase;
    erase.kind = FlashOpKind::Erase;
    erase.chip = 2;
    erase.row = {0, 9, 0};
    EXPECT_TRUE(runOne(erase).ok);

    FlashRequest prog;
    prog.kind = FlashOpKind::Program;
    prog.chip = 2;
    prog.row = {0, 9, 0};
    prog.dramAddr = 0;
    EXPECT_TRUE(runOne(prog).ok);

    FlashRequest read;
    read.kind = FlashOpKind::Read;
    read.chip = 2;
    read.row = {0, 9, 0};
    read.dramAddr = 1 << 20;
    OpResult r = runOne(read);
    EXPECT_TRUE(r.ok);

    std::vector<std::uint8_t> got(page);
    sys_->dram().read(1 << 20, got);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(ctrl_->opsCompleted(), 3u);
    EXPECT_EQ(ctrl_->opsFailed(), 0u);
}

TEST_P(ControllerTest, PslcRoundTripIsFasterThanTlc)
{
    if (isHardwareFlavor(GetParam()))
        GTEST_SKIP() << "hardware baselines have no pSLC FSM — the "
                        "rigidity BABOL removes";
    const std::uint32_t page = sys_->pageDataBytes();
    std::vector<std::uint8_t> payload(page, 0x5C);
    sys_->dram().write(0, payload);

    // TLC path on block 20.
    FlashRequest e1;
    e1.kind = FlashOpKind::Erase;
    e1.row = {0, 20, 0};
    EXPECT_TRUE(runOne(e1).ok);
    FlashRequest p1;
    p1.kind = FlashOpKind::Program;
    p1.row = {0, 20, 0};
    EXPECT_TRUE(runOne(p1).ok);
    FlashRequest r1;
    r1.kind = FlashOpKind::Read;
    r1.row = {0, 20, 0};
    r1.dramAddr = 1 << 20;
    OpResult tlc = runOne(r1);
    ASSERT_TRUE(tlc.ok);

    // pSLC path on block 21.
    FlashRequest e2;
    e2.kind = FlashOpKind::SlcErase;
    e2.row = {0, 21, 0};
    EXPECT_TRUE(runOne(e2).ok);
    EXPECT_TRUE(sys_->lun(0).array().isSlcBlock(21));
    FlashRequest p2;
    p2.kind = FlashOpKind::PslcProgram;
    p2.row = {0, 21, 0};
    EXPECT_TRUE(runOne(p2).ok);
    FlashRequest r2;
    r2.kind = FlashOpKind::PslcRead;
    r2.row = {0, 21, 0};
    r2.dramAddr = 2 << 20;
    OpResult slc = runOne(r2);
    ASSERT_TRUE(slc.ok);

    // tR shrinks by the pSLC factor; the transfer is unchanged, so the
    // whole op should be measurably faster.
    EXPECT_LT(ticks::toUs(slc.latency()), ticks::toUs(tlc.latency()));

    std::vector<std::uint8_t> got(page);
    sys_->dram().read(2 << 20, got);
    EXPECT_EQ(got, payload);
}

TEST_P(ControllerTest, ProgramWithoutEraseReportsFlashFail)
{
    FlashRequest prog;
    prog.kind = FlashOpKind::Program;
    prog.row = {0, 30, 4}; // page 4 of a never-erased block: out of order
    prog.dramAddr = 0;
    OpResult r = runOne(prog);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.flashFail);
}

INSTANTIATE_TEST_SUITE_P(Flavors, ControllerTest,
                         testing::Values(Flavor::Coroutine, Flavor::Rtos,
                                         Flavor::HwSync, Flavor::HwAsync),
                         flavorLabel);

TEST(FlavorContrast, HardwareReadBeatsSoftwareOnLatency)
{
    auto read_latency_us = [](const char *flavor) {
        EventQueue eq;
        ChannelConfig cfg;
        cfg.package = nand::hynixPackage();
        cfg.chips = 1;
        ChannelSystem sys(eq, "ssd", cfg);
        auto ctrl = ssd::makeController(eq, flavor, "ctrl", sys);

        auto run_one = [&](FlashRequest req) {
            OpResult out;
            req.onComplete = [&](OpResult r) { out = r; };
            ctrl->submit(std::move(req));
            eq.run();
            return out;
        };

        FlashRequest erase;
        erase.kind = FlashOpKind::Erase;
        erase.row = {0, 1, 0};
        run_one(erase);
        FlashRequest prog;
        prog.kind = FlashOpKind::Program;
        prog.row = {0, 1, 0};
        run_one(prog);

        FlashRequest read;
        read.kind = FlashOpKind::Read;
        read.row = {0, 1, 0};
        read.dramAddr = 1 << 20;
        OpResult r = run_one(read);
        EXPECT_TRUE(r.ok);
        return ticks::toUs(r.latency());
    };

    double hw = read_latency_us("hw-async");
    double rtos = read_latency_us("rtos");
    double coro = read_latency_us("coro");

    // R/B#-pin hardware detection beats polling; tighter RTOS polling
    // beats coroutine polling (Fig. 11's ordering).
    EXPECT_LT(hw, rtos);
    EXPECT_LT(rtos, coro);

    // And the floor: tR (~100 us) + transfer (~93 us at 200 MT/s).
    EXPECT_GT(hw, 190.0);
    EXPECT_LT(hw, 215.0);
}

TEST(FlavorContrast, RtosPollsFasterThanCoroutine)
{
    // Identical single read on both flavours at 1 GHz; the logic-analyzer
    // trace must show a markedly shorter polling period for RTOS
    // (paper Fig. 11).
    auto polling_period_us = [](const char *flavor) {
        EventQueue eq;
        ChannelConfig cfg;
        cfg.package = nand::hynixPackage();
        cfg.chips = 1;
        ChannelSystem sys(eq, "ssd", cfg);
        sys.bus().trace().setEnabled(true);

        auto ctrl = ssd::makeController(eq, flavor, "ctrl", sys);

        FlashRequest erase;
        erase.kind = FlashOpKind::Erase;
        erase.row = {0, 1, 0};
        ctrl->submit(std::move(erase));
        eq.run();
        FlashRequest prog;
        prog.kind = FlashOpKind::Program;
        prog.row = {0, 1, 0};
        ctrl->submit(std::move(prog));
        eq.run();

        sys.bus().trace().clear();
        FlashRequest read;
        read.kind = FlashOpKind::Read;
        read.row = {0, 1, 0};
        read.dramAddr = 1 << 20;
        ctrl->submit(std::move(read));
        eq.run();

        auto periods = sys.bus().trace().periodsOf("READ_STATUS");
        EXPECT_GE(periods.size(), 1u) << "tR should need several polls";
        double sum = 0;
        for (Tick p : periods)
            sum += ticks::toUs(p);
        return sum / periods.size();
    };

    double coro = polling_period_us("coro");
    double rtos = polling_period_us("rtos");

    // Calibration targets: ~30 us/cycle for coroutines at 1 GHz, and a
    // markedly higher polling frequency for the RTOS stack.
    EXPECT_GT(coro, 20.0);
    EXPECT_LT(coro, 40.0);
    EXPECT_LT(rtos, coro / 3.0);
}

} // namespace
