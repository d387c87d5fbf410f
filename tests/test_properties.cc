/**
 * @file
 * System-level property tests (DESIGN.md §5 invariants), exercised with
 * randomized workloads:
 *
 *  - Data integrity: any program→read sequence through any controller
 *    flavour returns the written bytes.
 *  - Protocol soundness: random concurrent op mixes never trip the LUN
 *    or bus timing/atomicity panics.
 *  - Determinism: identical seeds produce identical simulated time.
 *  - FTL integrity under random overwrites with GC pressure.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/coro/coro_controller.hh"
#include "core/coro/ops.hh"
#include "core/hw/hw_controller.hh"
#include "ftl/ftl.hh"
#include "ssd/ssd.hh"

using namespace babol;
using namespace babol::core;

namespace {

/**
 * Random mixed workload: erases, programs (in NAND page order), and
 * reads with verification, many in flight at once across all chips.
 */
class RandomMixSweep
    : public testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(RandomMixSweep, IntegrityAndProtocolHold)
{
    const auto &[flavor, seed] = GetParam();

    EventQueue eq;
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.package.geometry.pagesPerBlock = 16; // keep the model small
    cfg.package.geometry.blocksPerPlane = 8;
    cfg.chips = 3;
    cfg.seed = static_cast<std::uint64_t>(seed);
    ChannelSystem sys(eq, "ssd", cfg);
    auto ctrl = ssd::makeController(eq, flavor, "ctrl", sys);

    Rng rng(static_cast<std::uint64_t>(seed) * 7919);
    const std::uint32_t blocks = cfg.package.geometry.blocksPerLun();
    const std::uint32_t pages = cfg.package.geometry.pagesPerBlock;
    const std::uint32_t page_bytes = sys.pageDataBytes();

    // Oracle state per (chip, block): next programmable page + the fill
    // byte of every programmed page.
    struct BlockOracle
    {
        bool erased = false;
        std::uint32_t next = 0;
        std::map<std::uint32_t, std::uint8_t> content;
    };
    std::map<std::pair<std::uint32_t, std::uint32_t>, BlockOracle> oracle;

    int pending = 0;
    int verified_reads = 0;
    std::uint8_t next_fill = 1;

    for (int step = 0; step < 160; ++step) {
        std::uint32_t chip =
            static_cast<std::uint32_t>(rng.uniform(0, cfg.chips - 1));
        // Concentrate on a few blocks so erase/program/read sequences
        // actually build up state to verify.
        std::uint32_t block =
            static_cast<std::uint32_t>(rng.uniform(0, 3));
        BlockOracle &ob = oracle[{chip, block}];
        (void)blocks;

        switch (std::min<std::uint64_t>(rng.uniform(0, 5), 2)) {
          case 0: { // erase
            FlashRequest req;
            req.kind = FlashOpKind::Erase;
            req.chip = chip;
            req.row = {0, block, 0};
            ++pending;
            req.onComplete = [&pending](OpResult r) {
                EXPECT_TRUE(r.ok);
                --pending;
            };
            ob.erased = true;
            ob.next = 0;
            ob.content.clear();
            ctrl->submit(std::move(req));
            break;
          }
          case 1: { // program next page, if possible
            if (!ob.erased || ob.next >= pages)
                break;
            std::uint8_t fill = next_fill++;
            std::uint64_t staging =
                (2u << 20) + static_cast<std::uint64_t>(fill) * page_bytes;
            std::vector<std::uint8_t> payload(page_bytes, fill);
            sys.dram().write(staging, payload);

            FlashRequest req;
            req.kind = FlashOpKind::Program;
            req.chip = chip;
            req.row = {0, block, ob.next};
            req.dramAddr = staging;
            ++pending;
            req.onComplete = [&pending](OpResult r) {
                EXPECT_TRUE(r.ok);
                --pending;
            };
            ob.content[ob.next] = fill;
            ++ob.next;
            ctrl->submit(std::move(req));
            break;
          }
          default: { // read a programmed page and verify
            if (ob.content.empty())
                break;
            auto it = ob.content.begin();
            std::advance(it, static_cast<long>(rng.uniform(
                                 0, ob.content.size() - 1)));
            std::uint32_t page = it->first;
            std::uint8_t fill = it->second;
            std::uint64_t dst =
                (40u << 20) +
                static_cast<std::uint64_t>(verified_reads % 32) *
                    page_bytes;

            FlashRequest req;
            req.kind = FlashOpKind::Read;
            req.chip = chip;
            req.row = {0, block, page};
            req.dramAddr = dst;
            ++pending;
            req.onComplete = [&, fill, dst, page_bytes](OpResult r) {
                EXPECT_TRUE(r.ok);
                std::vector<std::uint8_t> got(page_bytes);
                sys.dram().read(dst, got);
                EXPECT_EQ(got,
                          std::vector<std::uint8_t>(page_bytes, fill));
                --pending;
            };
            ++verified_reads;
            ctrl->submit(std::move(req));
            break;
          }
        }

        // Occasionally drain to bound in-flight work per chip queue.
        if (step % 24 == 23)
            eq.run();
    }
    eq.run();
    EXPECT_EQ(pending, 0);
    EXPECT_GE(verified_reads, 5);
}

INSTANTIATE_TEST_SUITE_P(
    FlavorsAndSeeds, RandomMixSweep,
    testing::Combine(testing::Values("coro", "rtos", "hw-async",
                                     "hw-sync"),
                     testing::Values(1, 2, 3)),
    [](const testing::TestParamInfo<std::tuple<std::string, int>> &info) {
        std::string name = std::get<0>(info.param) + "_s" +
                           std::to_string(std::get<1>(info.param));
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(Determinism, IdenticalSeedsIdenticalTimelines)
{
    auto run_once = [] {
        EventQueue eq;
        ChannelConfig cfg;
        cfg.package = nand::toshibaPackage();
        cfg.chips = 2;
        cfg.seed = 99;
        ChannelSystem sys(eq, "ssd", cfg);
        CoroController ctrl(eq, "ctrl", sys);

        std::vector<std::uint8_t> payload(sys.pageDataBytes(), 0x11);
        sys.dram().write(0, payload);

        for (std::uint32_t chip = 0; chip < 2; ++chip) {
            FlashRequest erase;
            erase.kind = FlashOpKind::Erase;
            erase.chip = chip;
            erase.row = {0, 0, 0};
            ctrl.submit(std::move(erase));
            FlashRequest prog;
            prog.kind = FlashOpKind::Program;
            prog.chip = chip;
            prog.row = {0, 0, 0};
            ctrl.submit(std::move(prog));
            FlashRequest read;
            read.kind = FlashOpKind::Read;
            read.chip = chip;
            read.row = {0, 0, 0};
            read.dramAddr = 1 << 20;
            ctrl.submit(std::move(read));
        }
        eq.run();
        return std::pair<Tick, std::uint64_t>{eq.now(), eq.firedCount()};
    };

    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(Determinism, DifferentSeedsDifferentTrTimings)
{
    auto read_time = [](std::uint64_t seed) {
        EventQueue eq;
        ChannelConfig cfg;
        cfg.package = nand::hynixPackage();
        cfg.chips = 1;
        cfg.seed = seed;
        ChannelSystem sys(eq, "ssd", cfg);
        HwController ctrl(eq, "ctrl", sys, false);

        FlashRequest erase;
        erase.kind = FlashOpKind::Erase;
        erase.row = {0, 0, 0};
        ctrl.submit(std::move(erase));
        eq.run();
        FlashRequest prog;
        prog.kind = FlashOpKind::Program;
        prog.row = {0, 0, 0};
        ctrl.submit(std::move(prog));
        eq.run();

        Tick t0 = eq.now();
        FlashRequest read;
        read.kind = FlashOpKind::Read;
        read.row = {0, 0, 0};
        read.dramAddr = 1 << 20;
        ctrl.submit(std::move(read));
        eq.run();
        return eq.now() - t0;
    };
    EXPECT_NE(read_time(1), read_time(2)); // tR variation differs
}

/**
 * Cache-pipeline property: random alternation of cache-program streams,
 * cache-read streams, plain reads, and erases on one LUN keeps every
 * byte intact. Exercises the data/cache register turn logic, the
 * background pre-read/pre-program stalls, and FAILC propagation.
 */
TEST(CachePipelineProperty, RandomStreamsPreserveData)
{
    EventQueue eq;
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.package.geometry.pagesPerBlock = 8;
    cfg.chips = 1;
    cfg.seed = 5150;
    ChannelSystem sys(eq, "ssd", cfg);
    CoroController ctrl(eq, "ctrl", sys);
    OpEnv &env = ctrl.env();

    auto run_op = [&](auto op) {
        bool done = false;
        op.setOnDone([&] { done = true; });
        ctrl.runtime().startOp(op.handle());
        eq.run();
        EXPECT_TRUE(done);
        return std::move(op.result());
    };
    auto run_req = [&](FlashRequest req) {
        OpResult out;
        bool done = false;
        req.onComplete = [&](OpResult r) {
            out = r;
            done = true;
        };
        ctrl.submit(std::move(req));
        eq.run();
        EXPECT_TRUE(done);
        return out;
    };

    Rng rng(99);
    const std::uint32_t page = sys.pageDataBytes();
    // Oracle: fill byte per (block, page).
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint8_t> oracle;
    std::map<std::uint32_t, std::uint32_t> next_page;
    std::uint8_t fill = 1;

    for (int step = 0; step < 40; ++step) {
        std::uint32_t block =
            static_cast<std::uint32_t>(rng.uniform(0, 2));
        switch (rng.uniform(0, 3)) {
          case 0: { // erase
            FlashRequest req;
            req.kind = FlashOpKind::Erase;
            req.row = {0, block, 0};
            ASSERT_TRUE(run_req(std::move(req)).ok);
            for (std::uint32_t p = 0; p < 8; ++p)
                oracle.erase({block, p});
            next_page[block] = 0;
            break;
          }
          case 1: { // cache-program a stream of 1..4 pages
            if (!next_page.count(block) || next_page[block] >= 8)
                break;
            std::uint32_t start = next_page[block];
            std::uint32_t pages = static_cast<std::uint32_t>(
                rng.uniform(1, std::min(4u, 8 - start)));
            for (std::uint32_t p = 0; p < pages; ++p) {
                std::uint8_t f = fill++;
                if (fill == 0)
                    fill = 1;
                std::vector<std::uint8_t> payload(page, f);
                sys.dram().write(static_cast<std::uint64_t>(p) * page,
                                 payload);
                oracle[{block, start + p}] = f;
            }
            OpResult r = run_op(cacheProgramSeqOp(
                env, 0, {0, block, start}, pages, 0));
            ASSERT_TRUE(r.ok) << "block " << block << " start " << start;
            next_page[block] = start + pages;
            break;
          }
          case 2: { // cache-read a stream of programmed pages
            if (!next_page.count(block) || next_page[block] == 0)
                break;
            std::uint32_t pages = static_cast<std::uint32_t>(
                rng.uniform(1, next_page[block]));
            OpResult r = run_op(
                cacheReadSeqOp(env, 0, {0, block, 0}, pages, 8 << 20));
            ASSERT_TRUE(r.ok);
            for (std::uint32_t p = 0; p < pages; ++p) {
                std::vector<std::uint8_t> got(page);
                sys.dram().read((8 << 20) +
                                    static_cast<std::uint64_t>(p) * page,
                                got);
                EXPECT_EQ(got[0], (oracle[{block, p}]))
                    << "block " << block << " page " << p;
                EXPECT_EQ(got[page - 1], (oracle[{block, p}]));
            }
            break;
          }
          default: { // plain read of one programmed page
            if (!next_page.count(block) || next_page[block] == 0)
                break;
            std::uint32_t p = static_cast<std::uint32_t>(
                rng.uniform(0, next_page[block] - 1));
            FlashRequest req;
            req.kind = FlashOpKind::Read;
            req.row = {0, block, p};
            req.dramAddr = 16 << 20;
            ASSERT_TRUE(run_req(std::move(req)).ok);
            std::vector<std::uint8_t> got(page);
            sys.dram().read(16 << 20, got);
            EXPECT_EQ(got[0], (oracle[{block, p}]));
            break;
          }
        }
    }
}

TEST(FtlProperty, RandomOverwritesNeverLoseData)
{
    EventQueue eq;
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.package.geometry.pagesPerBlock = 8;
    cfg.package.geometry.blocksPerPlane = 16;
    cfg.chips = 2;
    ChannelSystem sys(eq, "ssd", cfg);
    HwController ctrl(eq, "ctrl", sys, false);

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 12;
    fcfg.overprovision = 0.3;
    ftl::PageFtl ftl(eq, "ftl", ctrl, fcfg);

    Rng rng(2024);
    const std::uint64_t extent = ftl.logicalPages() / 2;
    std::map<std::uint64_t, std::uint8_t> oracle;

    auto write_lpn = [&](std::uint64_t lpn, std::uint8_t fill) {
        std::vector<std::uint8_t> payload(ftl.pageBytes(), fill);
        sys.dram().write(0, payload);
        bool ok = false;
        ftl.writePage(lpn, 0, [&](bool o) { ok = o; });
        eq.run();
        ASSERT_TRUE(ok);
        oracle[lpn] = fill;
    };

    for (int i = 0; i < 250; ++i) {
        std::uint64_t lpn = rng.uniform(0, extent - 1);
        write_lpn(lpn, static_cast<std::uint8_t>(rng.uniform(0, 255)));
    }
    EXPECT_GT(ftl.gcRuns(), 0u) << "workload should trigger GC";

    // Every written LPN reads back its last value.
    int checked = 0;
    for (const auto &[lpn, fill] : oracle) {
        if (++checked > 40)
            break;
        bool ok = false;
        ftl.readPage(lpn, 1 << 20, [&](bool o) { ok = o; });
        eq.run();
        ASSERT_TRUE(ok) << "lpn " << lpn;
        std::vector<std::uint8_t> got(ftl.pageBytes());
        sys.dram().read(1 << 20, got);
        EXPECT_EQ(got, std::vector<std::uint8_t>(ftl.pageBytes(), fill))
            << "lpn " << lpn;
    }
}

} // namespace
