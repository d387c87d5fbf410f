/**
 * @file
 * The Packetizer — BABOL's specialized DMA unit (paper §III/§IV-A).
 *
 * It pairs with the Data Writer and Data Reader μFSMs: for writes it
 * fetches bytes from the SSD's DRAM and delivers them in DQ-bus-width
 * packets; for reads it pushes captured bytes through the hardware ECC
 * engine and lands the corrected image in DRAM.
 */

#ifndef BABOL_CORE_PACKETIZER_HH
#define BABOL_CORE_PACKETIZER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "dram/dram.hh"
#include "ecc.hh"
#include "instruction.hh"
#include "sim/sim_object.hh"

namespace babol::core {

class Packetizer : public SimObject
{
  public:
    Packetizer(EventQueue &eq, const std::string &name,
               dram::DramBuffer &dram, EccEngine &ecc)
        : SimObject(eq, name), dram_(dram), ecc_(ecc)
    {}

    dram::DramBuffer &dram() { return dram_; }
    EccEngine &ecc() { return ecc_; }

    /** DMA setup time added ahead of each data burst. */
    Tick setupTime() const { return dram_.transferTime(0); }

    /**
     * Fetch a Data Writer's payload from DRAM, optionally expanding it
     * through the ECC encoder into the codeword+parity flash image,
     * and append it to @p out. The encoder reads DRAM in place, so the
     * payload is copied once, into @p out.
     */
    void
    fetchInto(const DataWriter &dw, std::vector<std::uint8_t> &out) const
    {
        ++descriptors_;
        if (!dw.inlineData.empty()) {
            out.insert(out.end(), dw.inlineData.begin(),
                       dw.inlineData.end());
            return;
        }
        std::span<const std::uint8_t> src =
            dram_.readSpan(dw.dramAddr, dw.bytes);
        if (!dw.eccEncode) {
            out.insert(out.end(), src.begin(), src.end());
            return;
        }
        const std::size_t base = out.size();
        out.resize(base + ecc_.flashBytesFor(dw.bytes));
        ecc_.encodeInto(src, std::span<std::uint8_t>(out).subspan(base));
    }

    /** fetchInto() a fresh buffer. */
    std::vector<std::uint8_t>
    fetch(const DataWriter &dw) const
    {
        std::vector<std::uint8_t> bytes;
        fetchInto(dw, bytes);
        return bytes;
    }

    /**
     * Land a Data Reader's capture: run ECC (when requested, using the
     * flash model's sideband @p flips) on the captured bytes in place,
     * strip parity, and store the payload in DRAM. Raw (non-ECC)
     * captures land verbatim.
     */
    EccReport
    deliver(const DataReader &dr, std::span<std::uint8_t> bytes,
            std::span<const std::uint32_t> flips) const
    {
        EccReport report;
        ++descriptors_;
        if (!dr.eccCorrect) {
            if (dr.toDram)
                dram_.write(dr.dramAddr, bytes);
            return report;
        }
        report = ecc_.decode(bytes, dr.pageColumn, flips);
        if (dr.toDram) {
            std::uint32_t payload =
                static_cast<std::uint32_t>(bytes.size()) /
                ecc_.codewordTotalBytes() * ecc_.params().codewordDataBytes;
            ecc_.extractInto(bytes, dram_.writeSpan(dr.dramAddr, payload));
        }
        return report;
    }

    std::uint64_t descriptorCount() const { return descriptors_; }

  private:
    dram::DramBuffer &dram_;
    EccEngine &ecc_;
    mutable std::uint64_t descriptors_ = 0;
};

} // namespace babol::core

#endif // BABOL_CORE_PACKETIZER_HH
