/**
 * @file
 * The flash back-end abstraction the FTL builds on: something that
 * accepts FlashRequests for a flat space of chips and exposes the
 * geometry and the DRAM staging buffer. A single ChannelController is
 * a back-end; so is a multi-channel Ssd, where the chip index spans
 * channels (chip = channel * chipsPerChannel + way).
 */

#ifndef BABOL_CORE_FLASH_BACKEND_HH
#define BABOL_CORE_FLASH_BACKEND_HH

#include <string>

#include "dram/dram.hh"
#include "fault/fault_engine.hh"
#include "nand/geometry.hh"
#include "op_request.hh"

namespace babol::core {

class FlashBackend
{
  public:
    virtual ~FlashBackend() = default;

    /** Accept one flash operation; req.chip indexes the flat space. */
    virtual void submit(FlashRequest req) = 0;

    /** Chips in the flat space. */
    virtual std::uint32_t backendChipCount() const = 0;

    /** Geometry shared by all chips. */
    virtual const nand::Geometry &backendGeometry() const = 0;

    /** The DRAM staging buffer host data moves through. */
    virtual dram::DramBuffer &backendDram() = 0;

    /**
     * SimObject-name prefix of chip @p chip's package — a substring of
     * every LUN name under it, usable as a FaultSpec `where` pattern or
     * a FaultEngine::deadAt() query. Empty when the back-end has no
     * named NAND underneath (unit-test stubs).
     */
    virtual std::string backendChipName(std::uint32_t chip) const
    {
        (void)chip;
        return {};
    }

    /** The device's fault engine (its queue's context's) — the FTL
     *  reports remaps through the same engine the NAND hooks consult. */
    virtual fault::FaultEngine &backendFaults() = 0;
};

} // namespace babol::core

#endif // BABOL_CORE_FLASH_BACKEND_HH
