/**
 * @file
 * Figure 10 — Effects of the software overhead.
 *
 * Channel READ throughput for the three packages, both channel rates,
 * processors from a 150 MHz soft-core to a 1 GHz ARM, and the three
 * controller flavours (hardware baseline, RTOS, coroutine), with the
 * LUN count varied as in the paper (Micron SO-DIMMs wire only 2 LUNs).
 *
 * Expected shapes (paper §VI-A): throughput rises with LUNs until the
 * channel saturates; the software controllers approach the hardware
 * baseline as the processor speeds up; the RTOS flavour needs far less
 * processor than the coroutine flavour.
 */

#include <iostream>

#include "bench_common.hh"
#include "obs/cli.hh"

using namespace babol;
using namespace babol::bench;

namespace {

ChannelRunResult
run(nand::Vendor vendor, std::uint32_t rate_mt, const std::string &flavor,
    std::uint32_t cpu_mhz, std::uint32_t luns)
{
    EventQueue eq;
    ChannelConfig cfg;
    cfg.package = nand::packageFor(vendor);
    cfg.chips = luns;
    cfg.rateMT = rate_mt;
    cfg.seed = 17;
    ChannelSystem sys(eq, "ssd", cfg);
    core::SoftControllerConfig soft;
    soft.cpuMhz = cpu_mhz;
    auto ctrl = ssd::makeController(eq, flavor, "ctrl", sys, soft);
    return runChannelReadWorkload(eq, sys, *ctrl, luns, 30);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false, csv = false;
    obs::cli::Options obs_opts;
    for (int i = 1; i < argc; ++i) {
        if (obs_opts.parse(argc, argv, i))
            continue;
        if (std::string(argv[i]) == "--quick")
            quick = true;
        if (std::string(argv[i]) == "--csv")
            csv = true;
    }
    obs_opts.applyStartup();

    std::cout << "FIGURE 10: CHANNEL READ THROUGHPUT (MB/s)\n"
              << "'*' marks the 150 MHz soft-core; 'hw' is the "
                 "hardware-based baseline\n\n";

    const std::vector<std::uint32_t> cpus =
        quick ? std::vector<std::uint32_t>{150, 1000}
              : std::vector<std::uint32_t>{150, 200, 400, 600, 800, 1000};

    for (nand::Vendor vendor : {nand::Vendor::Hynix, nand::Vendor::Toshiba,
                                nand::Vendor::Micron}) {
        std::vector<std::uint32_t> lun_counts =
            vendor == nand::Vendor::Micron
                ? std::vector<std::uint32_t>{2}
                : std::vector<std::uint32_t>{2, 4, 8};

        for (std::uint32_t rate : {100u, 200u}) {
            std::cout << "--- " << toString(vendor) << " @ " << rate
                      << " MT/s ---\n";

            std::vector<std::string> headers = {"Controller", "CPU"};
            for (std::uint32_t luns : lun_counts)
                headers.push_back(strfmt("%u LUNs", luns));
            Table table(std::move(headers));

            {
                std::vector<std::string> row = {"hw (baseline)", "-"};
                for (std::uint32_t luns : lun_counts)
                    row.push_back(Table::num(
                        run(vendor, rate, "hw", 1000, luns).mbps, 1));
                table.addRow(std::move(row));
            }

            for (std::string flavor : {"rtos", "coro"}) {
                for (std::uint32_t mhz : cpus) {
                    std::vector<std::string> row = {
                        flavor,
                        strfmt("%u MHz%s", mhz, mhz == 150 ? "*" : "")};
                    for (std::uint32_t luns : lun_counts)
                        row.push_back(Table::num(
                            run(vendor, rate, flavor, mhz, luns).mbps,
                            1));
                    table.addRow(std::move(row));
                }
            }
            if (csv)
                table.printCsv(std::cout);
            else
                table.print(std::cout);
            std::cout << "\n";
        }
    }

    std::cout << "Expected shape: software flavours close on 'hw' as CPU "
                 "frequency rises;\nRTOS is viable from ~200 MHz while "
                 "coroutines want a fast core; throughput\ngrows with "
                 "LUNs until the channel saturates.\n";
    return obs_opts.finalize();
}
