/**
 * @file
 * Table I — Flash Memory Parameters.
 *
 * Prints the modeled package parameters next to the paper's values, and
 * *measures* the page transfer times by timing an actual full-page
 * Data Reader burst on the simulated channel at 100 and 200 MT/s.
 */

#include <iostream>

#include "bench_common.hh"

using namespace babol;
using namespace babol::bench;

namespace {

/** Time one full-page transfer segment on a fresh channel. */
double
measureTransferUs(std::uint32_t rate_mt)
{
    EventQueue eq;
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.chips = 1;
    cfg.rateMT = rate_mt;
    ChannelSystem sys(eq, "ssd", cfg);
    auto ctrl = ssd::makeController(eq, "hw", "ctrl", sys);

    preconditionChannel(eq, sys, *ctrl, 1);

    sys.bus().trace().setEnabled(true);
    FlashRequest read;
    read.kind = FlashOpKind::Read;
    read.row = {0, 0, 0};
    read.dramAddr = 1 << 20;
    runOne(eq, *ctrl, read);

    auto events = sys.bus().trace().find("READ.xfer");
    babol_assert(events.size() == 1, "expected one transfer segment");
    return ticks::toUs(events.front().end - events.front().start);
}

} // namespace

int
main()
{
    std::cout << "TABLE I: FLASH MEMORY PARAMETERS\n"
              << "(modeled values; transfer times measured on the "
                 "simulated channel)\n\n";

    Table table({"Parameter", "Modeled", "Paper"});

    for (nand::Vendor v : {nand::Vendor::Hynix, nand::Vendor::Toshiba,
                           nand::Vendor::Micron}) {
        nand::PackageConfig cfg = nand::packageFor(v);
        const char *paper = v == nand::Vendor::Hynix     ? "100 us"
                            : v == nand::Vendor::Toshiba ? "78 us"
                                                          : "53 us";
        table.addRow({strfmt("Page read time (%s)", toString(v)),
                      strfmt("%.0f us", ticks::toUs(cfg.timing.tR)),
                      paper});
    }
    table.addRow({"Page read size",
                  strfmt("%u B", nand::hynixPackage().geometry.pageDataBytes),
                  "16384 B"});

    double t100 = measureTransferUs(100);
    double t200 = measureTransferUs(200);
    table.addRow({"Page transfer time (100 MT/s)",
                  strfmt("%.0f us", t100), "185 us"});
    table.addRow({"Page transfer time (200 MT/s)",
                  strfmt("%.0f us", t200), "100 us"});

    table.print(std::cout);

    std::cout << "\nLUNs wired per channel: Hynix 8, Toshiba 8, Micron 2 "
                 "(as in the paper's SO-DIMMs)\n";
    std::cout << "\nNote: the transfer moves data + ECC parity ("
              << nand::hynixPackage().geometry.pageSpareBytes
              << " B spare) plus DQS preamble/warm-up; see DESIGN.md for "
                 "the calibration.\n";
    return 0;
}
