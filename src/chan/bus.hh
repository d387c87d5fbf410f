/**
 * @file
 * The shared ONFI channel bus.
 *
 * A small number of packages (2–16 LUNs' worth) hang off one set of DQ
 * wires. The bus executes one Segment at a time — attempting to issue
 * while busy panics, because arbitration is the scheduler's job and a
 * double-drive is by definition a controller bug. The bus also owns the
 * per-package phase-skew model that the §IV-C calibration tool tunes.
 */

#ifndef BABOL_CHAN_BUS_HH
#define BABOL_CHAN_BUS_HH

#include <functional>
#include <vector>

#include "nand/package.hh"
#include "obs/power/power.hh"
#include "phy.hh"
#include "segment.hh"
#include "sim/sim_object.hh"
#include "trace.hh"

namespace babol::chan {

class ChannelBus : public SimObject
{
  public:
    /**
     * @param rate_mt channel transfer rate in MT/s (100 or 200 in the
     *                paper's experiments)
     */
    ChannelBus(EventQueue &eq, const std::string &name,
               const nand::TimingParams &timing, std::uint32_t rate_mt);

    /** Attach a package; its CE line is bit `index` of segment masks. */
    std::uint32_t attach(nand::Package *pkg);

    std::uint32_t
    packageCount() const
    {
        return static_cast<std::uint32_t>(packages_.size());
    }

    nand::Package &package(std::uint32_t i);

    Phy &phy() { return phy_; }
    const Phy &phy() const { return phy_; }

    BusTrace &trace() { return trace_; }

    /** True while a segment occupies the wires. */
    bool busy() const { return busyUntil_ > curTick(); }

    /** Tick at which the current segment (if any) releases the bus. */
    Tick freeAt() const { return busyUntil_; }

    /**
     * Execute @p seg; panics if the bus is busy. @p done fires when the
     * segment (including its post-delay) completes, carrying any bytes
     * captured by DataOut items.
     */
    void issue(Segment seg, std::function<void(SegmentResult)> done);

    // --- Phase calibration model (§IV-C) ---

    /** Board-level trace skew of one package's data lines. */
    void setPhaseSkew(std::uint32_t pkg, Tick skew_ps);
    Tick phaseSkew(std::uint32_t pkg) const;

    /** Controller-side sampling-phase adjustment for one package. */
    void setPhaseAdjust(std::uint32_t pkg, Tick adjust_ps);
    Tick phaseAdjust(std::uint32_t pkg) const;

    /** True when reads from @p pkg sample within the valid window. */
    bool phaseOk(std::uint32_t pkg) const;

    // --- Stats ---

    std::uint64_t segmentsIssued() const { return segmentsIssued_; }
    std::uint64_t dataBytesIn() const { return dataBytesIn_; }
    std::uint64_t dataBytesOut() const { return dataBytesOut_; }
    Tick busyTicks() const { return busyTicks_; }

    /** The channel's I/O power rail (cmd/addr cycles + data bursts). */
    obs::power::Meter &powerMeter() { return power_; }

  private:
    void checkModeMatch(std::uint32_t ce_mask) const;
    std::vector<nand::Package *> selected(std::uint32_t ce_mask) const;

    Phy phy_;
    BusTrace trace_;
    std::vector<nand::Package *> packages_;
    std::vector<Tick> skew_;
    std::vector<Tick> adjust_;

    Tick busyUntil_ = 0;
    Tick busyTicks_ = 0;
    std::uint64_t segmentsIssued_ = 0;
    std::uint64_t dataBytesIn_ = 0;
    std::uint64_t dataBytesOut_ = 0;

    obs::power::Meter power_;
};

} // namespace babol::chan

#endif // BABOL_CHAN_BUS_HH
