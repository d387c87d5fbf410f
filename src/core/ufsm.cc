#include "ufsm.hh"

#include <algorithm>

#include "nand/onfi.hh"
#include "sim/logging.hh"

namespace babol::core {

std::string
mnemonic(const Instruction &ins)
{
    struct Visitor
    {
        std::string
        operator()(const CaWriter &w) const
        {
            std::string s = "CA[";
            for (const auto &latch : w.latches) {
                s += strfmt("%s%02x ", latch.isCommand ? "c" : "a",
                            latch.value);
            }
            if (!w.latches.empty())
                s.pop_back();
            return s + "]";
        }
        std::string
        operator()(const DataWriter &w) const
        {
            return strfmt("DW[%uB]", w.bytes);
        }
        std::string
        operator()(const DataReader &r) const
        {
            return strfmt("DR[%uB%s]", r.bytes, r.toDram ? ">dram" : "");
        }
        std::string
        operator()(const ChipControl &c) const
        {
            return strfmt("CE[%02x]", c.mask);
        }
        std::string
        operator()(const Timer &t) const
        {
            return strfmt("T[%.1fus]", ticks::toUs(t.duration));
        }
    };
    return std::visit(Visitor{}, ins);
}

namespace {

/** Commands whose latch starts array work (tWB applies after them). */
bool
isConfirmCommand(std::uint8_t cmd)
{
    using namespace nand::opcode;
    switch (cmd) {
      case kRead2:
      case kReadCacheSeq:
      case kReadCacheEnd:
      case kReadMultiPlane:
      case kProgram2:
      case kProgramCache:
      case kProgramMultiPlane:
      case kErase2:
      case kReset:
      case kSynchronousReset:
      case kVendorSuspend:
      case kVendorResume:
      case kReadParamPage:
      case kReadUniqueId:
      case kGetFeatures:
        return true;
      default:
        return false;
    }
}

} // namespace

void
UfsmBank::emit(const Transaction &txn, BuiltSegment &built) const
{
    built.readers.clear();
    chan::Segment &seg = built.segment;
    seg.clear();
    seg.label = txn.label;
    seg.ceMask = 1u << txn.chip; // default; ChipControl overrides

    enum class Last { None, Command, Address, Data };
    Last last = Last::None;
    std::uint8_t last_cmd = 0;
    std::uint32_t capture_offset = 0;
    bool ends_busy = false;

    for (const Instruction &ins : txn.instructions) {
        if (const auto *cc = std::get_if<ChipControl>(&ins)) {
            babol_assert(cc->mask != 0, "ChipControl with empty mask");
            seg.ceMask = cc->mask;
            continue;
        }
        if (const auto *timer = std::get_if<Timer>(&ins)) {
            // Pure pause: an empty command item carrying only a delay.
            chan::SegmentItem &item = seg.items.emplace_back();
            item.type = nand::CycleType::CmdLatch;
            item.preDelay = timer->duration;
            continue;
        }
        if (const auto *ca = std::get_if<CaWriter>(&ins)) {
            babol_assert(!ca->latches.empty(), "empty C/A Writer");
            // Group consecutive latches of the same kind into items.
            std::size_t i = 0;
            while (i < ca->latches.size()) {
                bool is_cmd = ca->latches[i].isCommand;
                chan::SegmentItem &item = seg.items.emplace_back();
                item.type = is_cmd ? nand::CycleType::CmdLatch
                                   : nand::CycleType::AddrLatch;
                while (i < ca->latches.size() &&
                       ca->latches[i].isCommand == is_cmd) {
                    item.out.push_back(ca->latches[i].value);
                    ++i;
                }
                last = is_cmd ? Last::Command : Last::Address;
                if (is_cmd)
                    last_cmd = item.out.back();
            }
            ends_busy = last == Last::Command && isConfirmCommand(last_cmd);
            continue;
        }
        if (const auto *dw = std::get_if<DataWriter>(&ins)) {
            // Category-2 wait: address (or column change) to data loading.
            Tick pre = 0;
            if (last == Last::Address)
                pre = timing_.tAdl;
            else if (last == Last::Command)
                pre = timing_.tCcs;
            chan::SegmentItem &item = seg.beginDataIn(
                std::max(pre, packetizer_.setupTime()));
            packetizer_.fetchInto(*dw, seg.payload);
            seg.endDataIn(item);
            last = Last::Data;
            // A data-in burst can start array work directly (SET
            // FEATURES parameters) — reserve tWB below.
            ends_busy = true;
            continue;
        }
        if (const auto *dr = std::get_if<DataReader>(&ins)) {
            chan::SegmentItem item = chan::SegmentItem::dataOut(dr->bytes);
            // Category-2 wait: command/address cycle to data output. A
            // column-change confirm (E0h) requires the longer tCCS;
            // address-terminated preambles (READ ID, READ STATUS
            // ENHANCED) still need tWHR.
            if (last == Last::Command) {
                item.preDelay = last_cmd == nand::opcode::kChangeReadCol2
                                    ? timing_.tCcs
                                    : timing_.tWhr;
            } else if (last == Last::Address) {
                item.preDelay = timing_.tWhr;
            }
            if (dr->toDram) {
                item.preDelay = std::max(item.preDelay,
                                         packetizer_.setupTime());
            }
            seg.items.push_back(std::move(item));
            built.readers.push_back({*dr, capture_offset});
            capture_offset += dr->bytes;
            last = Last::Data;
            ends_busy = false;
            continue;
        }
        panic("unhandled instruction kind");
    }

    // Confirm commands and trailing data-in bursts (SET FEATURES) start
    // array work; reserve tWB so the segment's bus hold covers the
    // busy-line transition (paper §IV-B, category 2). Data-out-ending
    // segments (status polls, transfers) leave the LUN idle.
    if (ends_busy)
        seg.postDelay = timing_.tWb;
}

} // namespace babol::core
