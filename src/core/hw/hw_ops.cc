#include "hw_ops.hh"

#include <algorithm>

#include "fault/fault_engine.hh"
#include "nand/onfi.hh"

namespace babol::core {

using namespace nand;

void
HwOpFsm::waitReadyPin(std::function<void()> fn)
{
    // Hardware monitors the composite R/B# pin through a two-flop
    // synchronizer; the FSM advances one sync delay after the pin rises.
    nand::Lun &lun = ctrl_.system().lun(req_.chip);
    Tick ready_at = lun.ready() ? ctrl_.curTick() : lun.busyUntil();
    Tick wake = std::max(ctrl_.curTick(), ready_at) + ctrl_.rbSyncDelay();
    ctrl_.eventQueue().schedule(wake, [this, fn = std::move(fn)] {
        nand::Lun &l = ctrl_.system().lun(req_.chip);
        if (!l.ready()) {
            waitReadyPin(fn); // pin bounced (suspend etc.): re-arm
            return;
        }
        fn();
    }, "hw r/b# wait");
}

std::size_t
hwOpFsmBytes()
{
    return std::max({sizeof(HwReadFsm), sizeof(HwProgramFsm),
                     sizeof(HwEraseFsm), sizeof(HwOobReadFsm)});
}

HwOpFsm &
makeHwOpFsm(HwController &ctrl, FlashRequest req, InPlaceSlot<HwOpFsm> &slot)
{
    switch (req.kind) {
      case FlashOpKind::Read:
        return slot.emplace<HwReadFsm>(ctrl, std::move(req));
      case FlashOpKind::Program:
        return slot.emplace<HwProgramFsm>(ctrl, std::move(req));
      case FlashOpKind::Erase:
        return slot.emplace<HwEraseFsm>(ctrl, std::move(req));
      case FlashOpKind::OobRead:
        // The mount scan forced a respin: a fourth hand-written FSM
        // (Table II grows again) where the BABOL flavours reuse their
        // read building blocks.
        return slot.emplace<HwOobReadFsm>(ctrl, std::move(req));
      default:
        // The rigidity the paper complains about: anything beyond the
        // baked-in operations needs new hardware.
        fatal("hardware controller has no FSM for operation '%s' — "
              "respin the RTL or use a BABOL controller",
              toString(req.kind));
    }
}

// =====================================================================
// READ — every cycle written out by hand, as the RTL would be.
// =====================================================================
// LOC:BEGIN HW_READ
void
HwReadFsm::start()
{
    babol_assert(state_ == State::Idle, "read FSM restarted");
    if (req_.dataBytes == 0)
        req_.dataBytes = ctrl_.system().pageDataBytes();
    state_ = State::IssueCmdAddr;
    step();
}

void
HwReadFsm::step()
{
    ChannelSystem &sys = ctrl_.system();
    const Geometry &geo = sys.config().package.geometry;
    const TimingParams &t = sys.config().package.timing;

    switch (state_) {
      case State::IssueCmdAddr: {
        // --- hard-coded 00h / 5 address cycles / 30h waveform ---
        const std::uint32_t flash_col =
            sys.ecc().flashColumnFor(req_.column);
        chan::Segment seg;
        seg.label = ctrl_.labels().readCa[req_.chip];
        seg.ceMask = 1u << req_.chip;

        chan::SegmentItem cmd1;
        cmd1.type = CycleType::CmdLatch;
        cmd1.out.push_back(opcode::kRead1);
        seg.items.push_back(cmd1);

        chan::SegmentItem addr;
        addr.type = CycleType::AddrLatch;
        // column cycles, LSB first
        addr.out.push_back(static_cast<std::uint8_t>(flash_col & 0xFF));
        addr.out.push_back(
            static_cast<std::uint8_t>((flash_col >> 8) & 0xFF));
        // row cycles: page | block | lun, packed LSB first
        {
            AddressCycles row = encodeRow(geo, req_.row);
            addr.out.push_back(row[0]);
            addr.out.push_back(row[1]);
            addr.out.push_back(row[2]);
        }
        seg.items.push_back(addr);

        chan::SegmentItem cmd2;
        cmd2.type = CycleType::CmdLatch;
        cmd2.out.push_back(opcode::kRead2);
        seg.items.push_back(cmd2);

        seg.postDelay = t.tWb; // WE# high to busy

        state_ = State::WaitArrayBusy;
        ctrl_.issueSegment(req_.chip, std::move(seg),
                           [this](std::span<std::uint8_t>) { step(); });
        return;
      }
      case State::WaitArrayBusy:
        // tR elapses in the array; the R/B# pin reports completion.
        state_ = State::WaitArrayReady;
        waitReadyPin([this] { step(); });
        return;
      case State::WaitArrayReady: {
        // --- hard-coded 05h / 2 column cycles / E0h / DOUT waveform ---
        const std::uint32_t flash_col =
            sys.ecc().flashColumnFor(req_.column);
        const std::uint32_t flash_bytes =
            sys.ecc().flashBytesFor(req_.dataBytes);
        chan::Segment seg;
        seg.label = ctrl_.labels().readXfer[req_.chip];
        seg.ceMask = 1u << req_.chip;

        chan::SegmentItem cmd1;
        cmd1.type = CycleType::CmdLatch;
        cmd1.out.push_back(opcode::kChangeReadCol1);
        cmd1.preDelay = t.tRr; // ready to first cycle
        seg.items.push_back(cmd1);

        chan::SegmentItem col;
        col.type = CycleType::AddrLatch;
        col.out.push_back(static_cast<std::uint8_t>(flash_col & 0xFF));
        col.out.push_back(
            static_cast<std::uint8_t>((flash_col >> 8) & 0xFF));
        seg.items.push_back(col);

        chan::SegmentItem cmd2;
        cmd2.type = CycleType::CmdLatch;
        cmd2.out.push_back(opcode::kChangeReadCol2);
        seg.items.push_back(cmd2);

        chan::SegmentItem data;
        data.type = CycleType::DataOut;
        data.inCount = flash_bytes;
        data.preDelay = t.tCcs; // change-column settle before DQS
        seg.items.push_back(data);

        state_ = State::TransferData;
        ctrl_.issueSegment(req_.chip, std::move(seg),
                           [this](std::span<std::uint8_t> capture) {
            // --- hardware ECC + DMA land the payload in DRAM ---
            ChannelSystem &s = ctrl_.system();
            DataReader descriptor;
            descriptor.bytes =
                s.ecc().flashBytesFor(req_.dataBytes);
            descriptor.toDram = true;
            descriptor.dramAddr = req_.dramAddr;
            descriptor.eccCorrect = true;
            descriptor.pageColumn = s.ecc().flashColumnFor(req_.column);
            EccReport report = s.packetizer().deliver(
                descriptor, capture, s.lun(req_.chip).cacheRegisterFlips());
            result_.correctedBits = report.correctedBits;
            result_.failedCodewords = report.failedCodewords;
            result_.maxCodewordBits = report.maxCodewordBits;
            if (report.failedCodewords != 0
                && retries_ < ctrl_.maxReadRetries()) {
                // Retry-capable RTL: step the vendor retry level and
                // re-run the whole read waveform.
                ++retries_;
                ctrl_.backendFaults().noteRetryStep(
                    strfmt("hw c%u", req_.chip), retries_,
                    ctrl_.curTick());
                state_ = State::IssueRetryFeatures;
                step();
                return;
            }
            result_.ok = report.failedCodewords == 0;
            result_.retries = retries_;
            state_ = State::Done;
            step();
        });
        return;
      }
      case State::IssueRetryFeatures: {
        // --- hard-coded EFh / 89h / 4 parameter bytes waveform ---
        chan::Segment seg;
        seg.label = ctrl_.labels().readRetry[req_.chip];
        seg.ceMask = 1u << req_.chip;

        chan::SegmentItem cmd;
        cmd.type = CycleType::CmdLatch;
        cmd.out.push_back(opcode::kSetFeatures);
        seg.items.push_back(cmd);

        chan::SegmentItem addr;
        addr.type = CycleType::AddrLatch;
        addr.out.push_back(feature::kVendorReadRetry);
        seg.items.push_back(addr);

        const std::uint8_t params[] = {static_cast<std::uint8_t>(retries_),
                                       0, 0, 0};
        seg.dataIn(params, t.tAdl);

        seg.postDelay = t.tWb;

        state_ = State::WaitRetryReady;
        ctrl_.issueSegment(req_.chip, std::move(seg),
                           [this](std::span<std::uint8_t>) { step(); });
        return;
      }
      case State::WaitRetryReady:
        // tFEAT elapses in the die; re-read once the pin rises.
        state_ = State::IssueCmdAddr;
        waitReadyPin([this] { step(); });
        return;
      case State::Done:
        finish();
        return;
      default:
        panic("read FSM in impossible state %d", static_cast<int>(state_));
    }
}
// LOC:END HW_READ

// =====================================================================
// OOB READ — the respin the mount scan forced on the fixed-function
// controller: another full waveform written out by hand.
// =====================================================================
void
HwOobReadFsm::start()
{
    babol_assert(state_ == State::Idle, "oob FSM restarted");
    if (req_.dataBytes == 0)
        req_.dataBytes = ctrl_.system().config().package.geometry.pageOobBytes;
    state_ = State::IssueCmdAddr;
    step();
}

void
HwOobReadFsm::step()
{
    ChannelSystem &sys = ctrl_.system();
    const Geometry &geo = sys.config().package.geometry;
    const TimingParams &t = sys.config().package.timing;
    const std::uint32_t oob_col = geo.oobColumn();

    switch (state_) {
      case State::IssueCmdAddr: {
        // --- hard-coded 00h / 5 address cycles / 30h at the OOB column
        // (raw: no ECC column mapping) ---
        chan::Segment seg;
        seg.label = ctrl_.labels().oobReadCa[req_.chip];
        seg.ceMask = 1u << req_.chip;

        chan::SegmentItem cmd1;
        cmd1.type = CycleType::CmdLatch;
        cmd1.out.push_back(opcode::kRead1);
        seg.items.push_back(cmd1);

        chan::SegmentItem addr;
        addr.type = CycleType::AddrLatch;
        addr.out.push_back(static_cast<std::uint8_t>(oob_col & 0xFF));
        addr.out.push_back(
            static_cast<std::uint8_t>((oob_col >> 8) & 0xFF));
        {
            AddressCycles row = encodeRow(geo, req_.row);
            addr.out.push_back(row[0]);
            addr.out.push_back(row[1]);
            addr.out.push_back(row[2]);
        }
        seg.items.push_back(addr);

        chan::SegmentItem cmd2;
        cmd2.type = CycleType::CmdLatch;
        cmd2.out.push_back(opcode::kRead2);
        seg.items.push_back(cmd2);

        seg.postDelay = t.tWb;

        state_ = State::WaitArrayBusy;
        ctrl_.issueSegment(req_.chip, std::move(seg),
                           [this](std::span<std::uint8_t>) { step(); });
        return;
      }
      case State::WaitArrayBusy:
        state_ = State::WaitArrayReady;
        waitReadyPin([this] { step(); });
        return;
      case State::WaitArrayReady: {
        // --- hard-coded 05h / 2 column cycles / E0h / raw DOUT ---
        chan::Segment seg;
        seg.label = ctrl_.labels().oobReadXfer[req_.chip];
        seg.ceMask = 1u << req_.chip;

        chan::SegmentItem cmd1;
        cmd1.type = CycleType::CmdLatch;
        cmd1.out.push_back(opcode::kChangeReadCol1);
        cmd1.preDelay = t.tRr;
        seg.items.push_back(cmd1);

        chan::SegmentItem col;
        col.type = CycleType::AddrLatch;
        col.out.push_back(static_cast<std::uint8_t>(oob_col & 0xFF));
        col.out.push_back(
            static_cast<std::uint8_t>((oob_col >> 8) & 0xFF));
        seg.items.push_back(col);

        chan::SegmentItem cmd2;
        cmd2.type = CycleType::CmdLatch;
        cmd2.out.push_back(opcode::kChangeReadCol2);
        seg.items.push_back(cmd2);

        chan::SegmentItem data;
        data.type = CycleType::DataOut;
        data.inCount = req_.dataBytes;
        data.preDelay = t.tCcs;
        seg.items.push_back(data);

        state_ = State::TransferData;
        ctrl_.issueSegment(req_.chip, std::move(seg),
                           [this, oob_col](std::span<std::uint8_t> capture) {
            // Raw DMA: land the tail verbatim, ECC bypassed.
            DataReader descriptor;
            descriptor.bytes = req_.dataBytes;
            descriptor.toDram = true;
            descriptor.dramAddr = req_.dramAddr;
            descriptor.eccCorrect = false;
            descriptor.pageColumn = oob_col;
            ctrl_.system().packetizer().deliver(descriptor, capture, {});
            result_.ok = true;
            state_ = State::Done;
            step();
        });
        return;
      }
      case State::Done:
        finish();
        return;
      default:
        panic("oob FSM in impossible state %d", static_cast<int>(state_));
    }
}

// =====================================================================
// PROGRAM
// =====================================================================
// LOC:BEGIN HW_PROGRAM
void
HwProgramFsm::start()
{
    babol_assert(state_ == State::Idle, "program FSM restarted");
    if (req_.dataBytes == 0)
        req_.dataBytes = ctrl_.system().pageDataBytes();
    state_ = State::IssueCmdAddrData;
    step();
}

void
HwProgramFsm::step()
{
    ChannelSystem &sys = ctrl_.system();
    const Geometry &geo = sys.config().package.geometry;
    const TimingParams &t = sys.config().package.timing;

    switch (state_) {
      case State::IssueCmdAddrData: {
        // --- hard-coded 80h / 5 address cycles / DIN / 10h waveform ---
        const std::uint32_t flash_col =
            sys.ecc().flashColumnFor(req_.column);
        chan::Segment seg;
        seg.label = ctrl_.labels().program[req_.chip];
        seg.ceMask = 1u << req_.chip;

        chan::SegmentItem cmd1;
        cmd1.type = CycleType::CmdLatch;
        cmd1.out.push_back(opcode::kProgram1);
        seg.items.push_back(cmd1);

        chan::SegmentItem addr;
        addr.type = CycleType::AddrLatch;
        addr.out.push_back(static_cast<std::uint8_t>(flash_col & 0xFF));
        addr.out.push_back(
            static_cast<std::uint8_t>((flash_col >> 8) & 0xFF));
        {
            AddressCycles row = encodeRow(geo, req_.row);
            addr.out.push_back(row[0]);
            addr.out.push_back(row[1]);
            addr.out.push_back(row[2]);
        }
        seg.items.push_back(addr);

        // The DMA engine fetched and ECC-encoded the payload while the
        // address cycles were on the wires.
        DataWriter descriptor;
        descriptor.dramAddr = req_.dramAddr;
        descriptor.bytes = req_.dataBytes;
        descriptor.eccEncode = true;
        seg.payload = ctrl_.recycledPayload();
        // address-to-data-loading wait
        chan::SegmentItem &data = seg.beginDataIn(t.tAdl);
        sys.packetizer().fetchInto(descriptor, seg.payload);
        seg.endDataIn(data);

        if (!req_.oob.empty()) {
            // --- hard-coded 85h / 2 column cycles / raw DIN tail ---
            // the OOB record rides the same 10h confirm below, so data
            // and record commit atomically.
            const std::uint32_t oob_col = geo.oobColumn();
            chan::SegmentItem wcol_cmd;
            wcol_cmd.type = CycleType::CmdLatch;
            wcol_cmd.out.push_back(opcode::kChangeWriteCol);
            seg.items.push_back(wcol_cmd);

            chan::SegmentItem wcol_addr;
            wcol_addr.type = CycleType::AddrLatch;
            wcol_addr.out.push_back(
                static_cast<std::uint8_t>(oob_col & 0xFF));
            wcol_addr.out.push_back(
                static_cast<std::uint8_t>((oob_col >> 8) & 0xFF));
            seg.items.push_back(wcol_addr);

            // change-column settle before DQS
            seg.dataIn(req_.oob, t.tCcs);
        }

        chan::SegmentItem cmd2;
        cmd2.type = CycleType::CmdLatch;
        cmd2.out.push_back(opcode::kProgram2);
        seg.items.push_back(cmd2);

        seg.postDelay = t.tWb;

        state_ = State::WaitArrayBusy;
        ctrl_.issueSegment(req_.chip, std::move(seg),
                           [this](std::span<std::uint8_t>) { step(); });
        return;
      }
      case State::WaitArrayBusy:
        state_ = State::WaitArrayReady;
        waitReadyPin([this] { step(); });
        return;
      case State::WaitArrayReady: {
        // --- hard-coded 70h / status byte waveform (FAIL check) ---
        chan::Segment seg;
        seg.label = ctrl_.labels().programStatus[req_.chip];
        seg.ceMask = 1u << req_.chip;

        chan::SegmentItem cmd;
        cmd.type = CycleType::CmdLatch;
        cmd.out.push_back(opcode::kReadStatus);
        seg.items.push_back(cmd);

        chan::SegmentItem data;
        data.type = CycleType::DataOut;
        data.inCount = 1;
        data.preDelay = t.tWhr;
        seg.items.push_back(data);

        state_ = State::CheckStatus;
        ctrl_.issueSegment(req_.chip, std::move(seg),
                           [this](std::span<std::uint8_t> capture) {
            statusByte_ = capture[0];
            state_ = State::Done;
            step();
        });
        return;
      }
      case State::Done:
        result_.flashFail = statusByte_ & status::kFail;
        result_.ok = !result_.flashFail;
        finish();
        return;
      default:
        panic("program FSM in impossible state %d",
              static_cast<int>(state_));
    }
}
// LOC:END HW_PROGRAM

// =====================================================================
// ERASE
// =====================================================================
// LOC:BEGIN HW_ERASE
void
HwEraseFsm::start()
{
    babol_assert(state_ == State::Idle, "erase FSM restarted");
    state_ = State::IssueCmdAddr;
    step();
}

void
HwEraseFsm::step()
{
    ChannelSystem &sys = ctrl_.system();
    const Geometry &geo = sys.config().package.geometry;
    const TimingParams &t = sys.config().package.timing;

    switch (state_) {
      case State::IssueCmdAddr: {
        // --- hard-coded 60h / 3 row cycles / D0h waveform ---
        chan::Segment seg;
        seg.label = ctrl_.labels().erase[req_.chip];
        seg.ceMask = 1u << req_.chip;

        chan::SegmentItem cmd1;
        cmd1.type = CycleType::CmdLatch;
        cmd1.out.push_back(opcode::kErase1);
        seg.items.push_back(cmd1);

        chan::SegmentItem addr;
        addr.type = CycleType::AddrLatch;
        {
            AddressCycles row = encodeRow(geo, req_.row);
            addr.out.push_back(row[0]);
            addr.out.push_back(row[1]);
            addr.out.push_back(row[2]);
        }
        seg.items.push_back(addr);

        chan::SegmentItem cmd2;
        cmd2.type = CycleType::CmdLatch;
        cmd2.out.push_back(opcode::kErase2);
        seg.items.push_back(cmd2);

        seg.postDelay = t.tWb;

        state_ = State::WaitArrayBusy;
        ctrl_.issueSegment(req_.chip, std::move(seg),
                           [this](std::span<std::uint8_t>) { step(); });
        return;
      }
      case State::WaitArrayBusy:
        state_ = State::WaitArrayReady;
        waitReadyPin([this] { step(); });
        return;
      case State::WaitArrayReady: {
        chan::Segment seg;
        seg.label = ctrl_.labels().eraseStatus[req_.chip];
        seg.ceMask = 1u << req_.chip;

        chan::SegmentItem cmd;
        cmd.type = CycleType::CmdLatch;
        cmd.out.push_back(opcode::kReadStatus);
        seg.items.push_back(cmd);

        chan::SegmentItem data;
        data.type = CycleType::DataOut;
        data.inCount = 1;
        data.preDelay = t.tWhr;
        seg.items.push_back(data);

        state_ = State::CheckStatus;
        ctrl_.issueSegment(req_.chip, std::move(seg),
                           [this](std::span<std::uint8_t> capture) {
            statusByte_ = capture[0];
            state_ = State::Done;
            step();
        });
        return;
      }
      case State::Done:
        result_.flashFail = statusByte_ & status::kFail;
        result_.ok = !result_.flashFail;
        finish();
        return;
      default:
        panic("erase FSM in impossible state %d",
              static_cast<int>(state_));
    }
}
// LOC:END HW_ERASE

} // namespace babol::core
