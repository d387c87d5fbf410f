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

#include <bit>
#include <span>
#include <vector>

#include "nand/package.hh"
#include "obs/power/power.hh"
#include "phy.hh"
#include "segment.hh"
#include "sim/inline_callback.hh"
#include "sim/sim_object.hh"
#include "sim/slot_pool.hh"
#include "trace.hh"

namespace babol::chan {

/**
 * Segment completion: receives the bytes the segment's DataOut items
 * captured, in order, as a span over the bus's capture buffer. The
 * span is valid until the next segment is issued; the receiver may
 * modify the bytes in place (the Packetizer decodes ECC there).
 */
using SegmentDone = InlineFunction<void(std::span<std::uint8_t>)>;

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
     *
     * The bus takes over seg.payload (the DataIn bytes) by swapping it
     * with the buffer of the segment it ran before, so @p seg comes
     * back holding a recycled buffer; every other field is left as is.
     * (After a double-drive reported by the auditor the bus copies the
     * payload instead, since the earlier bytes are still in flight.)
     */
    void issue(Segment &&seg, SegmentDone done);

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

    /** Call @p fn on every package whose CE bit is set in @p ce_mask,
     *  lowest index first. */
    template <typename F>
    void
    forSelected(std::uint32_t ce_mask, F &&fn) const
    {
        for (std::uint32_t m = ce_mask; m != 0; m &= m - 1) {
            const auto i = static_cast<std::uint32_t>(std::countr_zero(m));
            if (i >= packages_.size())
                break;
            fn(i, *packages_[i]);
        }
    }


    Phy phy_;
    BusTrace trace_;
    std::vector<nand::Package *> packages_;
    std::vector<Tick> skew_;
    std::vector<Tick> adjust_;

    /** DataIn bytes of the segment on the wires (its payload). */
    std::vector<std::uint8_t> dataIn_;
    /** DataOut capture buffer; grows to the longest capture, never
     *  shrinks, so steady-state captures neither allocate nor zero. */
    std::vector<std::uint8_t> capture_;
    /** Completions of segments on the wires (one, unless a
     *  double-drive was reported under the auditor). */
    SlotPool<SegmentDone> done_;

    Tick busyUntil_ = 0;
    Tick busyTicks_ = 0;
    std::uint64_t segmentsIssued_ = 0;
    std::uint64_t dataBytesIn_ = 0;
    std::uint64_t dataBytesOut_ = 0;

    obs::power::Meter power_;
};

} // namespace babol::chan

#endif // BABOL_CHAN_BUS_HH
