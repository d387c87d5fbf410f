/**
 * @file
 * Figure 12 — End-to-end SSD performance.
 *
 * The Cosmos+ experiment: one channel of Hynix packages behind a
 * page-mapped FTL, preconditioned with data, then read with fio-style
 * sequential and random workloads while the number of ways (LUNs)
 * varies from 1 to 8. The baseline is the Cosmos+ hardware controller
 * (hw-async); the BABOL RTOS and coroutine controllers run on a 1 GHz
 * ARM, as in the paper.
 */

#include <cstdlib>
#include <iostream>

#include "bench_common.hh"
#include "ftl/ftl.hh"
#include "host/fio.hh"
#include "host/nvme/client.hh"
#include "obs/cli.hh"
#include "obs/sim_context.hh"
#include "sim/parse.hh"
#include "ssd/ssd.hh"

using namespace babol;
using namespace babol::bench;

namespace {

/** Bandwidth plus the energy cost of the measured 300-IO phase. */
struct RunResult
{
    double mbps = 0;
    double njPerIo = 0;
};

/** Energy per IO from a grand-total delta over the measured phase. */
double
njPerIoDelta(std::uint64_t e0_fj, std::uint64_t e1_fj, std::uint64_t ios)
{
    return static_cast<double>(e1_fj - e0_fj) /
           static_cast<double>(ios) / 1e6;
}

RunResult
runSsd(const std::string &flavor, std::uint32_t ways, bool random_pattern)
{
    EventQueue eq;
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.chips = ways;
    cfg.rateMT = 200;
    cfg.seed = 5;
    ChannelSystem sys(eq, "ssd", cfg);
    auto ctrl = ssd::makeController(eq, flavor, "ctrl", sys);

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 4;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(eq, "ftl", *ctrl, fcfg);

    const std::uint64_t extent = 64ull * ways;

    // Precondition: fill the extent with data (exactly what the paper
    // does before running fio).
    host::FioConfig fill_cfg;
    fill_cfg.queueDepth = 2 * ways;
    fill_cfg.dramBase = 0;
    host::FioEngine filler(eq, "fill", ftl, fill_cfg);
    bool filled = false;
    filler.fill(extent, [&] { filled = true; });
    eq.run();
    babol_assert(filled, "fill never completed");

    host::FioConfig cfg_io;
    cfg_io.pattern = random_pattern ? host::FioConfig::Pattern::Random
                                    : host::FioConfig::Pattern::Sequential;
    cfg_io.queueDepth = 32;
    cfg_io.extentPages = extent;
    cfg_io.totalIos = 300;
    cfg_io.dramBase = 8 << 20;
    cfg_io.seed = 99;
    host::FioEngine engine(eq, "fio", ftl, cfg_io);
    auto &pm = eq.context().power;
    const std::uint64_t e0 = pm.grandTotalFjAt(eq.now());
    bool done = false;
    engine.start([&] { done = true; });
    eq.run();
    babol_assert(done && engine.errors() == 0, "fio run failed");
    const std::uint64_t e1 = pm.grandTotalFjAt(eq.now());
    return {engine.bandwidthMBps(), njPerIoDelta(e0, e1, 300)};
}

/** The multi-channel device both --qpairs columns measure. */
ssd::SsdConfig
deviceConfig(const std::string &flavor, std::uint32_t channels,
             std::uint32_t ways)
{
    ssd::SsdConfig cfg;
    cfg.channels = channels;
    cfg.flavor = flavor == "hw" ? "hw-async" : flavor;
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.chips = ways;
    cfg.channel.rateMT = 200;
    cfg.channel.seed = 5;
    cfg.cpuMhz = 1000;
    return cfg;
}

/**
 * Fig. 12 through the NVMe-style queued front end: a multi-channel
 * device whose measured random-read workload reaches it via @p qpairs
 * submission/completion queue pairs (DRAM rings, doorbells, interrupt
 * coalescing) instead of direct FTL calls — quantifying what the
 * production queueing path costs relative to the direct-call numbers.
 */
RunResult
runNvme(const std::string &flavor, std::uint32_t channels,
        std::uint32_t ways, std::uint32_t qpairs)
{
    EventQueue eq;
    ssd::Ssd dev(eq, "ssd", deviceConfig(flavor, channels, ways));

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 4;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(eq, "ftl", dev, fcfg);

    const std::uint64_t extent = 64ull * channels * ways;

    host::FioConfig fill_cfg;
    fill_cfg.queueDepth = 2 * channels * ways;
    fill_cfg.dramBase = 0;
    host::FioEngine filler(eq, "fill", ftl, fill_cfg);
    bool filled = false;
    filler.fill(extent, [&] { filled = true; });
    eq.run();
    babol_assert(filled, "fill never completed");

    host::HicConfig hcfg;
    hcfg.maxInflight = 64;
    host::Hic hic(eq, "hic", ftl, hcfg);

    host::nvme::NvmeConfig ncfg;
    ncfg.queuePairs = qpairs;
    ncfg.maxInflight = 64;
    ncfg.dramBase = 1 << 20;
    host::nvme::NvmeFrontEnd fe(eq, "nvme", hic, ncfg);

    // One client striped across every queue pair, matching the direct
    // path's depth-32 random READ workload. LBAs stay inside the
    // preconditioned extent.
    obs::MetricsRegistry reg;
    host::nvme::TenantConfig tcfg;
    tcfg.seed = 99;
    tcfg.queueDepth = 32;
    tcfg.totalIos = 300;
    tcfg.sectors = hic.sectorsPerPage(); // page-sized, like FioEngine
    tcfg.dramBase = 8 << 20;
    tcfg.lbaSpan = extent * hic.sectorsPerPage();
    host::nvme::TenantClient client(eq, "fig12", fe, reg, tcfg);
    auto &pm = eq.context().power;
    const Tick start = eq.now();
    const std::uint64_t e0 = pm.grandTotalFjAt(start);
    bool done = false;
    client.start([&] { done = true; });
    eq.run();
    babol_assert(done && client.errors() == 0, "nvme fio run failed");
    const Tick elapsed = eq.now() - start;
    const std::uint64_t e1 = pm.grandTotalFjAt(eq.now());
    const std::uint64_t bytes = 300ull * tcfg.sectors * hic.sectorBytes();
    return {bandwidthMBps(bytes, elapsed), njPerIoDelta(e0, e1, 300)};
}

/** The direct-call random-read column of the --qpairs table. */
RunResult
runDirect(const std::string &flavor, std::uint32_t channels,
          std::uint32_t ways)
{
    EventQueue eq;
    ssd::Ssd dev(eq, "ssd", deviceConfig(flavor, channels, ways));

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 4;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(eq, "ftl", dev, fcfg);

    const std::uint64_t extent = 64ull * channels * ways;

    host::FioConfig fill_cfg;
    fill_cfg.queueDepth = 2 * channels * ways;
    fill_cfg.dramBase = 0;
    host::FioEngine filler(eq, "fill", ftl, fill_cfg);
    bool filled = false;
    filler.fill(extent, [&] { filled = true; });
    eq.run();
    babol_assert(filled, "fill never completed");

    host::FioConfig cfg_io;
    cfg_io.pattern = host::FioConfig::Pattern::Random;
    cfg_io.queueDepth = 32;
    cfg_io.extentPages = extent;
    cfg_io.totalIos = 300;
    cfg_io.dramBase = 8 << 20;
    cfg_io.seed = 99;
    host::FioEngine engine(eq, "fio", ftl, cfg_io);
    auto &pm = eq.context().power;
    const std::uint64_t e0 = pm.grandTotalFjAt(eq.now());
    bool done = false;
    engine.start([&] { done = true; });
    eq.run();
    babol_assert(done && engine.errors() == 0, "fio run failed");
    const std::uint64_t e1 = pm.grandTotalFjAt(eq.now());
    return {engine.bandwidthMBps(), njPerIoDelta(e0, e1, 300)};
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false, csv = false;
    std::uint32_t qpairs = 0; // 0 = direct-call host path
    obs::cli::Options obs_opts;
    for (int i = 1; i < argc; ++i) {
        if (obs_opts.parse(argc, argv, i))
            continue;
        if (std::string(argv[i]) == "--quick")
            quick = true;
        if (std::string(argv[i]) == "--csv")
            csv = true;
        if (std::string(argv[i]) == "--qpairs" && i + 1 < argc)
            qpairs = parseCountFlag("--qpairs", argv[++i], 0xFFFFFFFFu);
    }
    obs_opts.applyStartup();

    // Energy accounting is part of this figure's output (J/IO per
    // flavour), so the power model is always on here. Enabled before
    // any device is built — meters latch the flag at construction.
    SimContext::processDefault().power.enable();

    if (qpairs > 0) {
        // Queued-front-end mode: random READ through N NVMe-style
        // queue pairs vs the direct path.
        const std::uint32_t channels = quick ? 2 : 4;
        const std::uint32_t ways = quick ? 2 : 4;
        std::cout << "FIGURE 12 (NVMe front end, " << qpairs
                  << " queue pair(s)): " << channels << "-channel x "
                  << ways << "-way random READ bandwidth (MB/s)\n\n";
        Table table({"Controller", "direct", "queued", "nJ/IO (queued)"});
        for (std::string flavor : {"hw", "rtos", "coro"}) {
            RunResult direct = runDirect(flavor, channels, ways);
            RunResult queued = runNvme(flavor, channels, ways, qpairs);
            table.addRow(
                {flavor == "hw" ? "Cosmos+ baseline (hw)" : flavor,
                 Table::num(direct.mbps, 1), Table::num(queued.mbps, 1),
                 Table::num(queued.njPerIo, 1)});
        }
        if (csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        return obs_opts.finalize();
    }

    std::cout << "FIGURE 12: END-TO-END SSD READ BANDWIDTH (MB/s)\n"
              << "Hynix packages, 200 MT/s channel, fio-style workloads, "
                 "1 GHz ARM for the software stacks\n\n";

    const std::vector<std::uint32_t> ways_list =
        quick ? std::vector<std::uint32_t>{1, 8}
              : std::vector<std::uint32_t>{1, 2, 4, 8};

    for (bool random_pattern : {false, true}) {
        std::cout << "--- " << (random_pattern ? "random" : "sequential")
                  << " READ ---\n";

        std::vector<std::string> headers = {"Controller"};
        for (std::uint32_t ways : ways_list)
            headers.push_back(strfmt("%u way%s", ways,
                                     ways == 1 ? "" : "s"));
        headers.push_back("gap @max ways");
        headers.push_back("nJ/IO @max ways");
        Table table(std::move(headers));

        std::vector<double> baseline;
        for (std::string flavor : {"hw", "rtos", "coro"}) {
            std::vector<std::string> row = {
                flavor == "hw" ? "Cosmos+ baseline (hw)" : flavor};
            std::vector<RunResult> series;
            for (std::uint32_t ways : ways_list)
                series.push_back(runSsd(flavor, ways, random_pattern));
            for (const RunResult &r : series)
                row.push_back(Table::num(r.mbps, 1));
            if (flavor == "hw") {
                baseline.clear();
                for (const RunResult &r : series)
                    baseline.push_back(r.mbps);
                row.push_back("-");
            } else {
                double gap =
                    100.0 * (baseline.back() - series.back().mbps) /
                    baseline.back();
                row.push_back(strfmt("-%.1f%%", gap));
            }
            row.push_back(Table::num(series.back().njPerIo, 1));
            table.addRow(std::move(row));
        }
        if (csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "Paper anchors @8 ways: RTOS within ~2% (seq) / ~3% "
                 "(random) of the baseline;\ncoroutines within ~8% / "
                 "~9%.\n";
    return obs_opts.finalize();
}
