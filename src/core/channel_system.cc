#include "channel_system.hh"

namespace babol::core {

ChannelSystem::ChannelSystem(EventQueue &eq, const std::string &name,
                             ChannelConfig cfg)
    : eq_(eq), name_(name), cfg_(cfg), ecc_(cfg.ecc)
{
    babol_assert(cfg_.chips >= 1 && cfg_.chips <= 16,
                 "channel supports 1..16 chips, got %u", cfg_.chips);
    babol_assert(cfg_.rateMT == 100 || cfg_.rateMT == 200,
                 "channel rate must be 100 or 200 MT/s (got %u)",
                 cfg_.rateMT);

    // The full-page flash image (payload + parity) must fit the
    // physical page; the default ECC geometry fills it exactly.
    const nand::Geometry &geo = cfg_.package.geometry;
    babol_assert(ecc_.flashBytesFor(geo.pageDataBytes) <=
                     geo.pageTotalBytes(),
                 "ECC layout (%u B) exceeds physical page (%u B)",
                 ecc_.flashBytesFor(geo.pageDataBytes),
                 geo.pageTotalBytes());

    if (cfg_.externalDram) {
        dram_ = cfg_.externalDram;
    } else {
        dramOwned_ = std::make_unique<dram::DramBuffer>(
            eq, name + ".dram", cfg_.dramBytes, 1600.0,
            200 * ticks::perNs);
        dram_ = dramOwned_.get();
    }
    packetizer_ = std::make_unique<Packetizer>(eq, name + ".pktz", *dram_,
                                               ecc_);
    bus_ = std::make_unique<chan::ChannelBus>(eq, name + ".bus",
                                              cfg_.package.timing,
                                              cfg_.rateMT);

    for (std::uint32_t i = 0; i < cfg_.chips; ++i) {
        auto pkg = std::make_unique<nand::Package>(
            eq, strfmt("%s.pkg%u", name.c_str(), i), cfg_.package,
            cfg_.seed * 1000 + i);
        bus_->attach(pkg.get());
        packages_.push_back(std::move(pkg));
    }

    if (cfg_.bootstrapped) {
        bus_->phy().setMode(nand::DataInterface::Nvddr2);
        for (auto &pkg : packages_) {
            for (std::uint32_t l = 0; l < pkg->lunCount(); ++l) {
                pkg->lun(l).bootstrapInterface(nand::DataInterface::Nvddr2,
                                               cfg_.rateMT);
            }
        }
    }

    exec_ = std::make_unique<ExecUnit>(eq, name + ".exec", *bus_,
                                       *packetizer_, cfg_.fifoDepth);
}

} // namespace babol::core
