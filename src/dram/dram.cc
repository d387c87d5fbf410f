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
    checkRange(addr, data.size());
    std::copy(data.begin(), data.end(), mem_.begin() + addr);
    bytesWritten_ += data.size();
    if (power_.enabled()) {
        const Tick t0 = curTick();
        const std::uint64_t fj = data.size() *
            power_.params().dramPjPerByte * 1000;
        power_.chargeEnergy(1, fj);
        power_.noteActive(t0, t0 + transferTime(data.size()), fj);
    }
}

void
DramBuffer::read(std::uint64_t addr, std::span<std::uint8_t> out) const
{
    checkRange(addr, out.size());
    std::copy(mem_.begin() + addr, mem_.begin() + addr + out.size(),
              out.begin());
    bytesRead_ += out.size();
    if (power_.enabled()) {
        const Tick t0 = curTick();
        const std::uint64_t fj = out.size() *
            power_.params().dramPjPerByte * 1000;
        power_.chargeEnergy(0, fj);
        power_.noteActive(t0, t0 + transferTime(out.size()), fj);
    }
}

Tick
DramBuffer::transferTime(std::uint64_t bytes) const
{
    double seconds = static_cast<double>(bytes) / (bandwidthMBps_ * 1e6);
    return setupLatency_ +
           static_cast<Tick>(seconds * static_cast<double>(ticks::perSec));
}

} // namespace babol::dram
