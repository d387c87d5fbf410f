/**
 * @file
 * The SSD's DRAM staging buffer.
 *
 * Host data is staged here by the HIC and moved to/from the channel by
 * the Packetizer (the BABOL DMA unit). The backing store is a flat byte
 * array; the timing model charges a fixed setup latency plus a bandwidth
 * term per transfer. DRAM bandwidth is far above a single channel's
 * (as in the real Cosmos+), so it rarely becomes the bottleneck — but it
 * is modeled so that misconfigured systems can observe it.
 */

#ifndef BABOL_DRAM_DRAM_HH
#define BABOL_DRAM_DRAM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "obs/power/power.hh"
#include "sim/sim_object.hh"

namespace babol::dram {

class DramBuffer : public SimObject
{
  public:
    /**
     * @param bytes          capacity of the staging area
     * @param bandwidth_mbps sustained DMA bandwidth in MB/s
     * @param setup_latency  per-descriptor DMA setup time
     */
    DramBuffer(EventQueue &eq, const std::string &name, std::uint64_t bytes,
               double bandwidth_mbps = 1600.0,
               Tick setup_latency = 200 * ticks::perNs);

    std::uint64_t size() const { return mem_.size(); }

    /** Copy @p data into the buffer at @p addr (backing-store access);
     *  the power rail stamps the access with this buffer's clock. */
    void write(std::uint64_t addr, std::span<const std::uint8_t> data);

    /** Copy out of the buffer at @p addr. */
    void read(std::uint64_t addr, std::span<std::uint8_t> out) const;

    /**
     * The DMA engine's zero-copy forms of write() and read(): check the
     * range, count and charge the access exactly as the copying forms
     * do, and hand back the bytes in place. The caller fills (or
     * consumes) them before the next access to the buffer.
     */
    std::span<std::uint8_t> writeSpan(std::uint64_t addr,
                                      std::uint64_t len);
    std::span<const std::uint8_t> readSpan(std::uint64_t addr,
                                           std::uint64_t len) const;

    /** Time a DMA of @p bytes occupies the DRAM port. */
    Tick transferTime(std::uint64_t bytes) const;

    std::uint64_t bytesWritten() const { return bytesWritten_; }
    std::uint64_t bytesRead() const { return bytesRead_; }

    /** The row-activity power rail (per-byte access + standby). */
    obs::power::Meter &powerMeter() { return power_; }

  private:
    void checkRange(std::uint64_t addr, std::uint64_t len) const;

    std::vector<std::uint8_t> mem_;
    double bandwidthMBps_;
    Tick setupLatency_;

    /** read() is const but still counts and charges the access. */
    mutable std::uint64_t bytesWritten_ = 0;
    mutable std::uint64_t bytesRead_ = 0;
    mutable obs::power::Meter power_;
};

} // namespace babol::dram

#endif // BABOL_DRAM_DRAM_HH
