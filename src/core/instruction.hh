/**
 * @file
 * BABOL's waveform instruction set — the software-visible form of the
 * five μFSMs (paper §IV-A, Fig. 6).
 *
 * Operations written in software compose these instructions into
 * transactions; the hardware Operation Execution unit later *executes*
 * them by asking each μFSM to emit its waveform segment. Describing
 * segments as parameterized patterns (rather than hard-coded waveforms)
 * is the paper's key expressiveness insight.
 */

#ifndef BABOL_CORE_INSTRUCTION_HH
#define BABOL_CORE_INSTRUCTION_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <variant>

#include "sim/inline_vec.hh"
#include "sim/types.hh"

namespace babol::core {

/**
 * Command/Address Writer μFSM: emits a run of command and address
 * latches. Parameterized by the number of latches, each latch's type,
 * and each latch's value — exactly the three operands of §IV-A.
 */
struct CaWriter
{
    struct Latch
    {
        bool isCommand = true;
        std::uint8_t value = 0;
    };

    /** Longest latch run the ops emit: a two-command prefix, five
     *  address cycles and a confirm. */
    static constexpr std::size_t kMaxLatches = 12;

    InlineVec<Latch, kMaxLatches> latches;

    static CaWriter
    command(std::uint8_t cmd)
    {
        CaWriter w;
        w.latches.push_back({true, cmd});
        return w;
    }

    CaWriter &
    cmd(std::uint8_t value)
    {
        latches.push_back({true, value});
        return *this;
    }

    CaWriter &
    addr(std::span<const std::uint8_t> bytes)
    {
        for (std::uint8_t b : bytes)
            latches.push_back({false, b});
        return *this;
    }

    CaWriter &
    addr(std::initializer_list<std::uint8_t> bytes)
    {
        return addr(std::span<const std::uint8_t>(bytes.begin(),
                                                  bytes.size()));
    }
};

/**
 * Data Writer μFSM: moves bytes from DRAM into the LUN's page register,
 * paired with a Packetizer descriptor (the DRAM source address).
 */
struct DataWriter
{
    std::uint64_t dramAddr = 0;
    std::uint32_t bytes = 0;

    /** Run the payload through the hardware ECC encoder on the way to
     *  the package (payload bytes become codeword+parity bytes). */
    bool eccEncode = false;

    /**
     * Small payloads (feature parameters, the OOB record tail) can ride
     * inline instead of through a DRAM descriptor; when non-empty this
     * wins over dramAddr. The bytes are borrowed: the op that submits
     * the transaction owns them and keeps them alive until it
     * completes (the μFSM bank copies them onto the wires).
     */
    std::span<const std::uint8_t> inlineData;
};

/**
 * Data Reader μFSM: moves bytes from the LUN's page register out of the
 * package. Small reads (status, IDs) are returned to software inline;
 * page-sized reads are DMA-ed to DRAM through the Packetizer, passing
 * through the hardware ECC engine when correction is requested.
 */
struct DataReader
{
    std::uint32_t bytes = 0;

    /** DMA to DRAM (true) or hand back to software inline (false). */
    bool toDram = false;
    std::uint64_t dramAddr = 0;

    /** Run the ECC datapath over the captured bytes. */
    bool eccCorrect = false;
    /** Page column the burst starts at (maps codewords for ECC). */
    std::uint32_t pageColumn = 0;
};

/**
 * Chip Control μFSM: selects the chips (CE lines) the rest of the
 * transaction addresses. A multi-bit mask gang-schedules a waveform to
 * several chips at once (the RAIL use case of §IV-A).
 */
struct ChipControl
{
    std::uint32_t mask = 0;
};

/** Timer μFSM: at-least-this-long pause inside the waveform (tADL &c). */
struct Timer
{
    Tick duration = 0;
};

using Instruction =
    std::variant<CaWriter, DataWriter, DataReader, ChipControl, Timer>;

/** Short mnemonic for tracing. */
std::string mnemonic(const Instruction &ins);

} // namespace babol::core

#endif // BABOL_CORE_INSTRUCTION_HH
