/**
 * @file
 * A whole SSD back end: several independent channels — each a complete
 * ChannelSystem with its own BABOL (or baseline) controller and its own
 * embedded CPU — sharing one DRAM staging buffer, exposed to the FTL as
 * a flat chip space (chip = channel * waysPerChannel + way). This
 * completes the paper's Fig. 1 architecture: HIC ↔ FTL ↔ Storage
 * Controllers ↔ Flash.
 */

#ifndef BABOL_SSD_SSD_HH
#define BABOL_SSD_SSD_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/controller.hh"
#include "sim/slot_pool.hh"

namespace babol::ssd {

struct SsdConfig
{
    std::uint32_t channels = 4;

    /** Per-channel configuration (chips here = ways per channel). */
    core::ChannelConfig channel;

    /** Controller flavour: "coro", "rtos", "hw-sync", or "hw-async". */
    std::string flavor = "coro";

    /** Embedded CPU frequency for the software flavours. */
    std::uint32_t cpuMhz = 1000;

    /** Read-retry budget per flash read (recovery escalation). */
    std::uint32_t maxReadRetries = 0;

    /** Shared staging DRAM for the whole device. */
    std::uint64_t dramBytes = 256ull * 1024 * 1024;
};

/**
 * The one flavour-name -> controller dispatch: "coro", "rtos", "hw-sync"
 * or "hw-async" (alias "hw"). The hw flavours take only maxReadRetries
 * from @p soft; an unknown name is fatal.
 */
std::unique_ptr<core::ChannelController>
makeController(EventQueue &eq, const std::string &flavor,
               const std::string &name, core::ChannelSystem &sys,
               const core::SoftControllerConfig &soft = {});

class Ssd : public SimObject, public core::FlashBackend
{
  public:
    Ssd(EventQueue &eq, const std::string &name, SsdConfig cfg);
    ~Ssd() override;

    const SsdConfig &config() const { return cfg_; }

    std::uint32_t channelCount() const { return cfg_.channels; }
    std::uint32_t waysPerChannel() const { return cfg_.channel.chips; }

    core::ChannelSystem &channelSystem(std::uint32_t ch);
    core::ChannelController &controller(std::uint32_t ch);

    // --- FlashBackend ---
    void submit(core::FlashRequest req) override;
    std::uint32_t backendChipCount() const override
    {
        return cfg_.channels * cfg_.channel.chips;
    }
    const nand::Geometry &backendGeometry() const override
    {
        return cfg_.channel.package.geometry;
    }
    dram::DramBuffer &backendDram() override { return *dram_; }
    fault::FaultEngine &backendFaults() override
    {
        return eq_.context().faults;
    }
    std::string backendChipName(std::uint32_t chip) const override
    {
        const std::uint32_t ways = cfg_.channel.chips;
        return strfmt("%s.ch%u.pkg%u", name().c_str(), chip / ways,
                      chip % ways);
    }

    // --- Aggregated stats ---
    std::uint64_t opsCompleted() const;
    std::uint64_t payloadBytesRead() const;
    std::uint64_t payloadBytesWritten() const;

  private:
    /**
     * A request crossing the interconnect. It waits out the dispatch hop
     * here; the submitter's callback, then the op's result, stay until
     * the completion hop ends, so each hop's event captures only the
     * slot's handle.
     */
    struct InFlight
    {
        core::FlashRequest req;
        std::function<void(core::OpResult)> onComplete;
        core::OpResult result;
    };
    using InFlightPool = SlotPool<InFlight>;

    void dispatch(std::uint32_t channel, InFlightPool::Handle h);
    void complete(InFlightPool::Handle h);

    SsdConfig cfg_;

    /** Host<->channel interconnect hop (ssd/lookahead.hh). */
    Tick hop_ = 0;
    std::unique_ptr<dram::DramBuffer> dram_;
    std::vector<std::unique_ptr<core::ChannelSystem>> systems_;
    std::vector<std::unique_ptr<core::ChannelController>> controllers_;
    InFlightPool inFlight_;
};

} // namespace babol::ssd

#endif // BABOL_SSD_SSD_HH
