/**
 * @file
 * Waveform segments: the unit of bus occupancy.
 *
 * A Segment is the executable form of one transaction — a sequence of
 * command/address latches, data bursts, and pauses that monopolizes the
 * channel from start to finish (the paper's atomicity property). μFSMs
 * *emit* segments; the ChannelBus *executes* them.
 */

#ifndef BABOL_CHAN_SEGMENT_HH
#define BABOL_CHAN_SEGMENT_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "nand/onfi.hh"
#include "obs/label.hh"
#include "obs/span.hh"
#include "sim/inline_vec.hh"
#include "sim/types.hh"

namespace babol::chan {

/** One stretch of bus activity within a segment. */
struct SegmentItem
{
    /** Longest command or address run one item latches (5 address
     *  cycles is the longest the ops emit). */
    static constexpr std::size_t kMaxLatches = 8;

    nand::CycleType type = nand::CycleType::CmdLatch;

    /** Bytes latched by the controller (CmdLatch/AddrLatch). */
    InlineVec<std::uint8_t, kMaxLatches> out;

    /** Bytes to read from the package (DataOut). */
    std::uint32_t inCount = 0;

    /** DataIn: the burst's bytes are Segment::payload[dataOffset,
     *  dataOffset + dataBytes). */
    std::uint32_t dataOffset = 0;
    std::uint32_t dataBytes = 0;

    /** Extra wait before this item begins (Timer μFSM, tADL, tCCS...). */
    Tick preDelay = 0;

    static SegmentItem
    command(std::uint8_t cmd, Tick pre_delay = 0)
    {
        SegmentItem item;
        item.type = nand::CycleType::CmdLatch;
        item.out.push_back(cmd);
        item.preDelay = pre_delay;
        return item;
    }

    static SegmentItem
    address(std::span<const std::uint8_t> bytes, Tick pre_delay = 0)
    {
        SegmentItem item;
        item.type = nand::CycleType::AddrLatch;
        item.out.assign(bytes.begin(), bytes.end());
        item.preDelay = pre_delay;
        return item;
    }

    static SegmentItem
    address(std::initializer_list<std::uint8_t> bytes, Tick pre_delay = 0)
    {
        return address(std::span<const std::uint8_t>(bytes.begin(),
                                                     bytes.size()),
                       pre_delay);
    }

    static SegmentItem
    dataOut(std::uint32_t count, Tick pre_delay = 0)
    {
        SegmentItem item;
        item.type = nand::CycleType::DataOut;
        item.inCount = count;
        item.preDelay = pre_delay;
        return item;
    }
};

/** A full waveform segment (one transaction's worth of bus activity). */
struct Segment
{
    /** Longest item list one segment carries (a program with its OOB
     *  tail is seven items). */
    static constexpr std::size_t kMaxItems = 16;

    /** Chips (packages) selected while the segment runs. */
    std::uint32_t ceMask = 0;

    InlineVec<SegmentItem, kMaxItems> items;

    /** Every DataIn item's bytes, back to back. ChannelBus::issue()
     *  takes this buffer over by swapping it with the one it used
     *  last, so a segment that is built again and again (the exec
     *  unit's) recycles two buffers and never copies the payload. */
    std::vector<std::uint8_t> payload;

    /** Mandatory wait after the last item (e.g., tWB) — still part of the
     *  segment's bus reservation so no other transaction squeezes in. */
    Tick postDelay = 0;

    /** For the trace (logic-analyzer label). */
    obs::Label label;

    /** Span of the controller op this segment belongs to (tracing). */
    obs::TraceContext ctx;

    /** Append a DataIn burst driving @p bytes. */
    SegmentItem &
    dataIn(std::span<const std::uint8_t> bytes, Tick pre_delay = 0)
    {
        SegmentItem &item = beginDataIn(pre_delay);
        payload.insert(payload.end(), bytes.begin(), bytes.end());
        item.dataBytes = static_cast<std::uint32_t>(bytes.size());
        return item;
    }

    /**
     * Append a DataIn burst whose bytes the caller writes into
     * payload itself (payload.size() before and after bound them);
     * finish with endDataIn().
     */
    SegmentItem &
    beginDataIn(Tick pre_delay = 0)
    {
        SegmentItem &item = items.emplace_back();
        item.type = nand::CycleType::DataIn;
        item.dataOffset = static_cast<std::uint32_t>(payload.size());
        item.preDelay = pre_delay;
        return item;
    }

    void
    endDataIn(SegmentItem &item)
    {
        item.dataBytes =
            static_cast<std::uint32_t>(payload.size()) - item.dataOffset;
    }

    /** Empty the segment for reuse (the payload keeps its storage). */
    void
    clear()
    {
        ceMask = 0;
        items.clear();
        payload.clear();
        postDelay = 0;
        label = obs::Label();
        ctx = {};
    }
};

/**
 * An owning copy of the bytes a segment's DataOut items captured, in
 * order. The bus hands its completion a span over its own capture
 * buffer; a caller that keeps the bytes past the completion takes
 * them in one of these.
 */
struct SegmentResult
{
    std::vector<std::uint8_t> dataOut;

    SegmentResult() = default;
    SegmentResult(std::span<const std::uint8_t> bytes)
        : dataOut(bytes.begin(), bytes.end())
    {}
    SegmentResult(std::span<std::uint8_t> bytes)
        : dataOut(bytes.begin(), bytes.end())
    {}
};

} // namespace babol::chan

#endif // BABOL_CHAN_SEGMENT_HH
