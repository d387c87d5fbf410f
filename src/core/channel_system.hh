/**
 * @file
 * Assembly of one channel's worth of hardware: DRAM, ECC, Packetizer,
 * bus, packages, and the Operation Execution unit. Every controller
 * flavour and every experiment harness builds on this so comparisons
 * differ only in the component under test.
 */

#ifndef BABOL_CORE_CHANNEL_SYSTEM_HH
#define BABOL_CORE_CHANNEL_SYSTEM_HH

#include <memory>
#include <vector>

#include "chan/bus.hh"
#include "dram/dram.hh"
#include "ecc.hh"
#include "exec_unit.hh"
#include "nand/package.hh"
#include "packetizer.hh"

namespace babol::core {

struct ChannelConfig
{
    nand::PackageConfig package;

    /** Packages (single-LUN "ways") wired to the channel. */
    std::uint32_t chips = 8;

    /** Channel transfer rate in MT/s (paper: 100 or 200). */
    std::uint32_t rateMT = 200;

    /** Hardware transaction FIFO depth of the execution unit. */
    std::uint32_t fifoDepth = 4;

    std::uint64_t dramBytes = 64ull * 1024 * 1024;
    std::uint64_t seed = 1;

    /**
     * Use an externally owned DRAM buffer instead of building one (a
     * multi-channel SSD shares one staging DRAM across channels).
     */
    dram::DramBuffer *externalDram = nullptr;

    /**
     * Start packages and PHY directly in NV-DDR2 (true, default for
     * experiments) or in the ONFI-mandated SDR boot state (false; the
     * bring-up flow then has to reconfigure them, as on real hardware).
     */
    bool bootstrapped = true;

    EccParams ecc;
};

class ChannelSystem
{
  public:
    ChannelSystem(EventQueue &eq, const std::string &name,
                  ChannelConfig cfg);

    EventQueue &eventQueue() { return eq_; }
    const ChannelConfig &config() const { return cfg_; }
    const std::string &name() const { return name_; }

    dram::DramBuffer &dram() { return *dram_; }
    EccEngine &ecc() { return ecc_; }
    Packetizer &packetizer() { return *packetizer_; }
    chan::ChannelBus &bus() { return *bus_; }
    ExecUnit &exec() { return *exec_; }

    std::uint32_t chipCount() const { return cfg_.chips; }
    nand::Package &package(std::uint32_t chip) { return *packages_[chip]; }

    /** LUN 0 of chip @p chip (the experiments use single-LUN packages). */
    nand::Lun &lun(std::uint32_t chip) { return packages_[chip]->lun(0); }

    /** Payload bytes one page carries (== geometry pageDataBytes). */
    std::uint32_t pageDataBytes() const
    {
        return cfg_.package.geometry.pageDataBytes;
    }

    /** Flash-image bytes a full-page transfer moves (data + parity). */
    std::uint32_t pageFlashBytes() const
    {
        return ecc_.flashBytesFor(pageDataBytes());
    }

  private:
    EventQueue &eq_;
    std::string name_;
    ChannelConfig cfg_;
    EccEngine ecc_;
    std::unique_ptr<dram::DramBuffer> dramOwned_;
    dram::DramBuffer *dram_ = nullptr;
    std::unique_ptr<Packetizer> packetizer_;
    std::unique_ptr<chan::ChannelBus> bus_;
    std::vector<std::unique_ptr<nand::Package>> packages_;
    std::unique_ptr<ExecUnit> exec_;
};

} // namespace babol::core

#endif // BABOL_CORE_CHANNEL_SYSTEM_HH
