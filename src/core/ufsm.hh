/**
 * @file
 * The μFSM bank: turns a transaction's instruction list into an
 * executable waveform segment.
 *
 * This is the hardware half of the paper's asynchronous split. Software
 * described *what* to emit (the Instruction list); the μFSMs decide the
 * cycle-accurate *how* — including the first two timing categories of
 * §IV-B: intra-cycle waits (folded into the PHY's cycle times) and the
 * mandatory waits adjacent to segments (tWB, tWHR, tCCS, tADL), which
 * are inserted here automatically so the SSD Architect never sees them.
 */

#ifndef BABOL_CORE_UFSM_HH
#define BABOL_CORE_UFSM_HH

#include "chan/segment.hh"
#include "nand/timing.hh"
#include "packetizer.hh"
#include "transaction.hh"

namespace babol::core {

/** Where each Data Reader's bytes sit in the segment's capture stream. */
struct ReaderSlice
{
    DataReader reader;
    std::uint32_t offset = 0; //!< into SegmentResult::dataOut
};

/** A built segment plus the bookkeeping to demux its captured bytes. */
struct BuiltSegment
{
    chan::Segment segment;
    InlineVec<ReaderSlice, 4> readers;
};

class UfsmBank
{
  public:
    UfsmBank(const nand::TimingParams &timing, Packetizer &packetizer)
        : timing_(timing), packetizer_(packetizer)
    {}

    /**
     * Emit the waveform segment for @p txn into @p built (cleared
     * first; its buffers are reused). Data Writer payloads are
     * fetched from DRAM through the Packetizer at build time (the DMA
     * prefetch overlaps the preceding bus activity; its setup cost is
     * charged as a pre-delay on the burst).
     */
    void emit(const Transaction &txn, BuiltSegment &built) const;

    /** emit() into a fresh BuiltSegment. */
    BuiltSegment
    emit(const Transaction &txn) const
    {
        BuiltSegment built;
        emit(txn, built);
        return built;
    }

  private:
    nand::TimingParams timing_;
    Packetizer &packetizer_;
};

} // namespace babol::core

#endif // BABOL_CORE_UFSM_HH
