#include "dram.hh"

#include <algorithm>

#include "obs/sim_context.hh"

namespace babol::dram {

DramBuffer::DramBuffer(EventQueue &eq, const std::string &name,
                       std::uint64_t bytes, double bandwidth_mbps,
                       Tick setup_latency)
    : SimObject(eq, name),
      mem_(bytes, 0),
      bandwidthMBps_(bandwidth_mbps),
      setupLatency_(setup_latency),
      power_(eq, name, {"rd", "wr"},
             eq.context().power.params().dramStandbyMw)
{}

void
DramBuffer::checkRange(std::uint64_t addr, std::uint64_t len) const
{
    babol_assert(addr + len <= mem_.size(),
                 "DRAM access [%llu, %llu) exceeds capacity %zu",
                 static_cast<unsigned long long>(addr),
                 static_cast<unsigned long long>(addr + len), mem_.size());
}

void
DramBuffer::write(std::uint64_t addr, std::span<const std::uint8_t> data)
{
    std::span<std::uint8_t> dst = writeSpan(addr, data.size());
    std::copy(data.begin(), data.end(), dst.begin());
}

void
DramBuffer::read(std::uint64_t addr, std::span<std::uint8_t> out) const
{
    std::span<const std::uint8_t> src = readSpan(addr, out.size());
    std::copy(src.begin(), src.end(), out.begin());
}

std::span<std::uint8_t>
DramBuffer::writeSpan(std::uint64_t addr, std::uint64_t len)
{
    checkRange(addr, len);
    bytesWritten_ += len;
    if (power_.enabled()) {
        const Tick t0 = curTick();
        const std::uint64_t fj = len * power_.params().dramPjPerByte * 1000;
        power_.chargeEnergy(1, fj);
        power_.noteActive(t0, t0 + transferTime(len), fj);
    }
    return {mem_.data() + addr, static_cast<std::size_t>(len)};
}

std::span<const std::uint8_t>
DramBuffer::readSpan(std::uint64_t addr, std::uint64_t len) const
{
    checkRange(addr, len);
    bytesRead_ += len;
    if (power_.enabled()) {
        const Tick t0 = curTick();
        const std::uint64_t fj = len * power_.params().dramPjPerByte * 1000;
        power_.chargeEnergy(0, fj);
        power_.noteActive(t0, t0 + transferTime(len), fj);
    }
    return {mem_.data() + addr, static_cast<std::size_t>(len)};
}

Tick
DramBuffer::transferTime(std::uint64_t bytes) const
{
    double seconds = static_cast<double>(bytes) / (bandwidthMBps_ * 1e6);
    return setupLatency_ +
           static_cast<Tick>(seconds * static_cast<double>(ticks::perSec));
}

} // namespace babol::dram
