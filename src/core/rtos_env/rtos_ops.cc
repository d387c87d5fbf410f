#include "rtos_ops.hh"

#include "fault/fault_engine.hh"
#include "nand/onfi.hh"
#include "rtos_controller.hh"

namespace babol::core {

using namespace nand;
using namespace nand::opcode;

RtosOpBase::RtosOpBase(RtosController &ctrl, std::uint64_t id,
                       FlashRequest req, const std::string &name,
                       int priority)
    : cpu::RtosTask(name, priority),
      ctrl_(ctrl),
      id_(id),
      req_(std::move(req))
{
    res_.startTick = ctrl.curTick();
}

const TxnLabels &
RtosOpBase::labels() const
{
    return ctrl_.runtime().labels();
}

void
RtosOpBase::submitTxn(Transaction txn)
{
    txn.onComplete = [this](TxnResult r) {
        lastTxn_ = std::move(r);
        ctrl_.kernel().sendFromIsr(this, rtos_msg::kTxnDone);
    };
    ctrl_.runtime().submitTransaction(std::move(txn));
}

void
RtosOpBase::finish(OpResult res)
{
    res.submitTick = req_.submitTick;
    ctrl_.completeRequest(req_.chip, res);
}

std::uint8_t
RtosOpBase::lastStatus() const
{
    babol_assert(!lastTxn_.inlineData.empty(),
                 "no status byte in last transaction");
    return lastTxn_.inlineData.front();
}

Transaction
RtosOpBase::makeStatusPoll() const
{
    Transaction txn(req_.chip, labels().readStatus[req_.chip]);
    txn.add(ChipControl{1u << req_.chip});
    txn.add(CaWriter::command(kReadStatus));
    txn.add(DataReader{.bytes = 1});
    return txn;
}

void
RtosOpBase::beginPollWindow(Tick expected)
{
    pollStart_ = ctrl_.curTick();
    pollExpected_ = expected;
    pollBackoff_ = ticks::perUs;
}

bool
RtosOpBase::repollOrTimeout(const char *what)
{
    const Tick elapsed = ctrl_.curTick() - pollStart_;
    const Tick budget = pollExpected_ * 2 + kPollGrace;
    if (elapsed > budget) {
        ctrl_.backendFaults().noteTimeout(
            strfmt("rtos.%s c%u", what, req_.chip), ctrl_.curTick());
        res_.timedOut = true;
        return true;
    }
    if (elapsed <= pollExpected_) {
        submitTxn(makeStatusPoll()); // within datasheet time: poll hard
        return false;
    }
    // Past the datasheet time: pause off the bus before the next poll,
    // exponential and capped.
    Tick pause = pollBackoff_;
    pollBackoff_ = std::min<Tick>(pollBackoff_ * 2, kPollBackoffCap);
    ctrl_.eventQueue().schedule(ctrl_.curTick() + pause, [this] {
        submitTxn(makeStatusPoll());
    }, "rtos poll backoff");
    return false;
}

// --------------------------------------------------------------------
// READ
// --------------------------------------------------------------------
// LOC:BEGIN RTOS_READ
RtosReadOp::RtosReadOp(RtosController &ctrl, std::uint64_t id,
                       FlashRequest req, bool pslc)
    : RtosOpBase(ctrl, id,
                 [&] {
                     if (req.dataBytes == 0) {
                         req.dataBytes = ctrl.system()
                                             .config()
                                             .package.geometry.pageDataBytes;
                     }
                     return std::move(req);
                 }(),
                 strfmt("read.c%u", req.chip), 2),
      pslc_(pslc)
{}

void
RtosReadOp::issueLatch()
{
    ChannelSystem &sys = ctrl_.system();
    const Geometry &geo = sys.config().package.geometry;
    // Transaction 1: (optional pSLC prefix,) command, address, 30h.
    Transaction latch(req_.chip, pslc_ ? labels().pslcReadCa[req_.chip]
                                       : labels().readCa[req_.chip]);
    latch.add(ChipControl{1u << req_.chip});
    CaWriter head = pslc_ ? CaWriter::command(kVendorSlcPrefix)
                                .cmd(kRead1)
                          : CaWriter::command(kRead1);
    latch.add(head.addr(encodeColRow(
                            geo, sys.ecc().flashColumnFor(req_.column),
                            req_.row))
                  .cmd(kRead2));
    submitTxn(std::move(latch));
}

void
RtosReadOp::onMessage(cpu::RtosKernel &kernel, std::uint64_t msg)
{
    ChannelSystem &sys = ctrl_.system();
    const Geometry &geo = sys.config().package.geometry;
    const TimingParams &t = sys.config().package.timing;

    switch (st_) {
      case St::Idle:
        babol_assert(msg == rtos_msg::kStart, "read op expected start");
        issueLatch();
        st_ = St::WaitCaLatch;
        return;
      case St::WaitCaLatch: {
        // The latch is on the wires; start polling for array readiness.
        Tick expected = pslc_ ? static_cast<Tick>(t.tR * t.slcReadFactor)
                              : t.tR;
        beginPollWindow(expected);
        submitTxn(makeStatusPoll());
        st_ = St::WaitStatus;
        return;
      }
      case St::WaitStatus: {
        if (!(lastStatus() & status::kRdy)) {
            if (repollOrTimeout(pslc_ ? "PSLC_READ" : "READ")) {
                res_.retries = retries_;
                finish(res_); // stuck die: abandon the op
            }
            return;
        }
        // Ready: change read column and transfer the data out.
        std::uint32_t flash_col = sys.ecc().flashColumnFor(req_.column);
        Transaction xfer(req_.chip,
                         pslc_ ? labels().pslcReadXfer[req_.chip]
                               : labels().readXfer[req_.chip]);
        xfer.priority = 1;
        xfer.add(ChipControl{1u << req_.chip});
        xfer.add(CaWriter::command(kChangeReadCol1)
                     .addr(encodeColumn(geo, flash_col))
                     .cmd(kChangeReadCol2));
        DataReader dr;
        dr.bytes = sys.ecc().flashBytesFor(req_.dataBytes);
        dr.toDram = true;
        dr.dramAddr = req_.dramAddr;
        dr.eccCorrect = true;
        dr.pageColumn = flash_col;
        xfer.add(dr);
        submitTxn(std::move(xfer));
        st_ = St::WaitTransfer;
        return;
      }
      case St::WaitTransfer: {
        res_.correctedBits = lastTxn().eccCorrectedBits;
        res_.failedCodewords = lastTxn().eccFailedCodewords;
        res_.maxCodewordBits = lastTxn().eccMaxCodewordBits;
        bool failed = lastTxn().eccFailedCodewords != 0;
        if (failed && retries_ < ctrl_.maxReadRetries()) {
            // Read-retry escalation: step the vendor retry level via
            // SET FEATURES and re-issue the read.
            ++retries_;
            ctrl_.backendFaults().noteRetryStep(
                strfmt("rtos c%u", req_.chip), retries_, ctrl_.curTick());
            Transaction feat(req_.chip,
                             strfmt("SET_FEATURES c%u a%02x", req_.chip,
                                    feature::kVendorReadRetry));
            feat.add(ChipControl{1u << req_.chip});
            feat.add(CaWriter::command(kSetFeatures)
                         .addr({feature::kVendorReadRetry}));
            feat.add(Timer{t.tAdl});
            DataWriter dw;
            dw.bytes = 4;
            featureParams_ = {static_cast<std::uint8_t>(retries_), 0, 0, 0};
            dw.inlineData = featureParams_;
            feat.add(dw);
            submitTxn(std::move(feat));
            st_ = St::WaitRetryFeat;
            return;
        }
        res_.ok = !failed;
        res_.retries = retries_;
        finish(res_);
        return;
      }
      case St::WaitRetryFeat:
        // Level switch latched; wait for tFEAT to complete.
        beginPollWindow(t.tFeat);
        submitTxn(makeStatusPoll());
        st_ = St::WaitRetryFeatStatus;
        return;
      case St::WaitRetryFeatStatus:
        if (!(lastStatus() & status::kRdy)) {
            if (repollOrTimeout("SET_FEATURES")) {
                res_.retries = retries_;
                finish(res_);
            }
            return;
        }
        issueLatch(); // re-read at the new level
        st_ = St::WaitCaLatch;
        return;
    }
    panic("read op in impossible state");
}
// LOC:END RTOS_READ

// --------------------------------------------------------------------
// Raw OOB read (mount scan)
// --------------------------------------------------------------------
RtosOobReadOp::RtosOobReadOp(RtosController &ctrl, std::uint64_t id,
                             FlashRequest req)
    : RtosOpBase(ctrl, id,
                 [&] {
                     if (req.dataBytes == 0) {
                         req.dataBytes = ctrl.system()
                                             .config()
                                             .package.geometry.pageOobBytes;
                     }
                     return std::move(req);
                 }(),
                 strfmt("oob.c%u", req.chip), 2)
{}

void
RtosOobReadOp::onMessage(cpu::RtosKernel &kernel, std::uint64_t msg)
{
    ChannelSystem &sys = ctrl_.system();
    const Geometry &geo = sys.config().package.geometry;
    const TimingParams &t = sys.config().package.timing;
    const std::uint32_t oob_col = geo.oobColumn();

    switch (st_) {
      case St::Idle: {
        babol_assert(msg == rtos_msg::kStart, "oob op expected start");
        // Latch the read at the raw OOB column (no flashColumnFor: the
        // tail sits past the ECC image).
        Transaction latch(req_.chip, labels().oobReadCa[req_.chip]);
        latch.add(ChipControl{1u << req_.chip});
        latch.add(CaWriter::command(kRead1)
                      .addr(encodeColRow(geo, oob_col, req_.row))
                      .cmd(kRead2));
        submitTxn(std::move(latch));
        st_ = St::WaitCaLatch;
        return;
      }
      case St::WaitCaLatch:
        beginPollWindow(t.tR);
        submitTxn(makeStatusPoll());
        st_ = St::WaitStatus;
        return;
      case St::WaitStatus: {
        if (!(lastStatus() & status::kRdy)) {
            if (repollOrTimeout("OOB_READ"))
                finish(res_);
            return;
        }
        Transaction xfer(req_.chip, labels().oobReadXfer[req_.chip]);
        xfer.priority = 1;
        xfer.add(ChipControl{1u << req_.chip});
        xfer.add(CaWriter::command(kChangeReadCol1)
                     .addr(encodeColumn(geo, oob_col))
                     .cmd(kChangeReadCol2));
        DataReader dr;
        dr.bytes = req_.dataBytes;
        dr.toDram = true;
        dr.dramAddr = req_.dramAddr;
        dr.eccCorrect = false;
        dr.pageColumn = oob_col;
        xfer.add(dr);
        submitTxn(std::move(xfer));
        st_ = St::WaitTransfer;
        return;
      }
      case St::WaitTransfer:
        res_.ok = true;
        finish(res_);
        return;
    }
    panic("oob op in impossible state");
}

// --------------------------------------------------------------------
// PROGRAM
// --------------------------------------------------------------------
// LOC:BEGIN RTOS_PROGRAM
RtosProgramOp::RtosProgramOp(RtosController &ctrl, std::uint64_t id,
                             FlashRequest req, bool pslc)
    : RtosOpBase(ctrl, id,
                 [&] {
                     if (req.dataBytes == 0) {
                         req.dataBytes = ctrl.system()
                                             .config()
                                             .package.geometry.pageDataBytes;
                     }
                     return std::move(req);
                 }(),
                 strfmt("prog.c%u", req.chip), 1),
      pslc_(pslc)
{}

void
RtosProgramOp::onMessage(cpu::RtosKernel &kernel, std::uint64_t msg)
{
    ChannelSystem &sys = ctrl_.system();
    const Geometry &geo = sys.config().package.geometry;

    switch (st_) {
      case St::Idle: {
        babol_assert(msg == rtos_msg::kStart, "program op expected start");
        Transaction txn(req_.chip, labels().program[req_.chip]);
        txn.add(ChipControl{1u << req_.chip});
        CaWriter head = pslc_ ? CaWriter::command(kVendorSlcPrefix)
                                    .cmd(kProgram1)
                              : CaWriter::command(kProgram1);
        txn.add(head.addr(encodeColRow(
            geo, sys.ecc().flashColumnFor(req_.column), req_.row)));
        txn.add(DataWriter{.dramAddr = req_.dramAddr,
                           .bytes = req_.dataBytes,
                           .eccEncode = true,
                           .inlineData = {}});
        if (!req_.oob.empty()) {
            // OOB tail: raw burst into the same page register past the
            // ECC image; committed by the same 10h confirm below.
            txn.add(CaWriter::command(kChangeWriteCol)
                        .addr(encodeColumn(geo, geo.oobColumn())));
            DataWriter oob;
            oob.bytes = static_cast<std::uint32_t>(req_.oob.size());
            oob.inlineData = req_.oob;
            txn.add(oob);
        }
        txn.add(CaWriter::command(kProgram2));
        submitTxn(std::move(txn));
        st_ = St::WaitProgram;
        return;
      }
      case St::WaitProgram: {
        const TimingParams &t = sys.config().package.timing;
        beginPollWindow(pslc_ ? static_cast<Tick>(t.tProg *
                                                  t.slcProgFactor)
                              : t.tProg);
        submitTxn(makeStatusPoll());
        st_ = St::WaitStatus;
        return;
      }
      case St::WaitStatus:
        if (!(lastStatus() & status::kRdy)) {
            if (repollOrTimeout("PROGRAM"))
                finish(res_);
            return;
        }
        res_.flashFail = lastStatus() & status::kFail;
        res_.ok = !res_.flashFail;
        finish(res_);
        return;
    }
    panic("program op in impossible state");
}
// LOC:END RTOS_PROGRAM

// --------------------------------------------------------------------
// ERASE
// --------------------------------------------------------------------
// LOC:BEGIN RTOS_ERASE
RtosEraseOp::RtosEraseOp(RtosController &ctrl, std::uint64_t id,
                         FlashRequest req, bool slc_mode)
    : RtosOpBase(ctrl, id, std::move(req), strfmt("erase.c%u", req.chip),
                 0),
      slcMode_(slc_mode)
{}

void
RtosEraseOp::onMessage(cpu::RtosKernel &kernel, std::uint64_t msg)
{
    const Geometry &geo = ctrl_.system().config().package.geometry;

    switch (st_) {
      case St::Idle: {
        babol_assert(msg == rtos_msg::kStart, "erase op expected start");
        Transaction txn(req_.chip, labels().erase[req_.chip]);
        txn.add(ChipControl{1u << req_.chip});
        CaWriter head = slcMode_ ? CaWriter::command(kVendorSlcPrefix)
                                       .cmd(kErase1)
                                 : CaWriter::command(kErase1);
        txn.add(head.addr(encodeRow(geo, req_.row)).cmd(kErase2));
        submitTxn(std::move(txn));
        st_ = St::WaitErase;
        return;
      }
      case St::WaitErase: {
        const TimingParams &t = ctrl_.system().config().package.timing;
        beginPollWindow(slcMode_ ? static_cast<Tick>(t.tBers *
                                                     t.slcEraseFactor)
                                 : t.tBers);
        submitTxn(makeStatusPoll());
        st_ = St::WaitStatus;
        return;
      }
      case St::WaitStatus:
        if (!(lastStatus() & status::kRdy)) {
            if (repollOrTimeout("ERASE"))
                finish(res_);
            return;
        }
        res_.flashFail = lastStatus() & status::kFail;
        res_.ok = !res_.flashFail;
        finish(res_);
        return;
    }
    panic("erase op in impossible state");
}
// LOC:END RTOS_ERASE

} // namespace babol::core
