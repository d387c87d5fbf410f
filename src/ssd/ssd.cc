#include "ssd.hh"

#include "core/coro/coro_controller.hh"
#include "core/hw/hw_controller.hh"
#include "core/rtos_env/rtos_controller.hh"
#include "ssd/lookahead.hh"

namespace babol::ssd {

std::unique_ptr<core::ChannelController>
makeController(EventQueue &eq, const std::string &flavor,
               const std::string &name, core::ChannelSystem &sys,
               const core::SoftControllerConfig &soft)
{
    if (flavor == "coro")
        return std::make_unique<core::CoroController>(eq, name, sys, soft);
    if (flavor == "rtos")
        return std::make_unique<core::RtosController>(eq, name, sys, soft);
    if (flavor == "hw-sync" || flavor == "hw-async" || flavor == "hw") {
        auto hw = std::make_unique<core::HwController>(eq, name, sys,
                                                       flavor == "hw-sync");
        hw->setMaxReadRetries(soft.maxReadRetries);
        return hw;
    }
    fatal("unknown controller flavor '%s'", flavor.c_str());
}

Ssd::Ssd(EventQueue &eq, const std::string &name, SsdConfig cfg)
    : SimObject(eq, name), cfg_(cfg)
{
    babol_assert(cfg_.channels >= 1 && cfg_.channels <= 16,
                 "SSD supports 1..16 channels, got %u", cfg_.channels);

    hop_ = interconnectHop(cfg_.channel.package.timing);

    dram_ = std::make_unique<dram::DramBuffer>(
        eq, name + ".dram", cfg_.dramBytes, 1600.0, 200 * ticks::perNs);

    for (std::uint32_t ch = 0; ch < cfg_.channels; ++ch) {
        core::ChannelConfig ccfg = cfg_.channel;
        ccfg.externalDram = dram_.get();
        ccfg.seed = cfg_.channel.seed + ch * 7717;
        systems_.push_back(std::make_unique<core::ChannelSystem>(
            eq, strfmt("%s.ch%u", name.c_str(), ch), ccfg));

        core::ChannelSystem &sys = *systems_.back();
        core::SoftControllerConfig soft;
        soft.cpuMhz = cfg_.cpuMhz;
        soft.maxReadRetries = cfg_.maxReadRetries;
        controllers_.push_back(makeController(
            eq, cfg_.flavor, strfmt("%s.ch%u.ctrl", name.c_str(), ch), sys,
            soft));
    }
}

Ssd::~Ssd() = default;

core::ChannelSystem &
Ssd::channelSystem(std::uint32_t ch)
{
    babol_assert(ch < systems_.size(), "channel %u out of range", ch);
    return *systems_[ch];
}

core::ChannelController &
Ssd::controller(std::uint32_t ch)
{
    babol_assert(ch < controllers_.size(), "channel %u out of range", ch);
    return *controllers_[ch];
}

void
Ssd::submit(core::FlashRequest req)
{
    const std::uint32_t ways = cfg_.channel.chips;
    babol_assert(req.chip < backendChipCount(),
                 "global chip %u out of range", req.chip);
    const std::uint32_t channel = req.chip / ways;
    req.chip = req.chip % ways;

    // Model the host<->channel interconnect: dispatch and completion
    // each pay the hop.
    const InFlightPool::Handle h = inFlight_.park({std::move(req), {}, {}});
    scheduleIn(hop_, [this, channel, h] { dispatch(channel, h); },
               "ssd.dispatch");
}

void
Ssd::dispatch(std::uint32_t channel, InFlightPool::Handle h)
{
    InFlight &f = inFlight_.get(h);
    core::FlashRequest req = std::move(f.req);
    if (req.onComplete) {
        f.onComplete = std::move(req.onComplete);
        req.onComplete = [this, h](core::OpResult r) {
            inFlight_.get(h).result = r;
            scheduleIn(hop_, [this, h] { complete(h); }, "ssd.complete");
        };
    } else {
        inFlight_.release(h);
    }
    controllers_[channel]->submit(std::move(req));
}

void
Ssd::complete(InFlightPool::Handle h)
{
    InFlight &f = inFlight_.get(h);
    const std::function<void(core::OpResult)> done =
        std::move(f.onComplete);
    const core::OpResult result = f.result;
    inFlight_.release(h);
    done(result);
}

std::uint64_t
Ssd::opsCompleted() const
{
    std::uint64_t sum = 0;
    for (const auto &ctrl : controllers_)
        sum += ctrl->opsCompleted();
    return sum;
}

std::uint64_t
Ssd::payloadBytesRead() const
{
    std::uint64_t sum = 0;
    for (const auto &ctrl : controllers_)
        sum += ctrl->payloadBytesRead();
    return sum;
}

std::uint64_t
Ssd::payloadBytesWritten() const
{
    std::uint64_t sum = 0;
    for (const auto &ctrl : controllers_)
        sum += ctrl->payloadBytesWritten();
    return sum;
}

} // namespace babol::ssd
