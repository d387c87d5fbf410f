#include "exec_unit.hh"

#include <algorithm>

#include "obs/sim_context.hh"

namespace babol::core {

ExecUnit::ExecUnit(EventQueue &eq, const std::string &name,
                   chan::ChannelBus &bus, Packetizer &packetizer,
                   std::uint32_t fifo_depth)
    : SimObject(eq, name),
      bus_(bus),
      packetizer_(packetizer),
      ufsms_(bus.package(0).config().timing, packetizer),
      fifoDepth_(fifo_depth)
{
    babol_assert(fifo_depth >= 1, "FIFO depth must be at least 1");
}

void
ExecUnit::push(TxnRef txn)
{
    if (!hasSpace()) {
        panic("%s: transaction FIFO overflow (scheduler ignored "
              "hasSpace)",
              name().c_str());
    }
    fifo_.push_back(Pending{txn, curTick()});
    tryIssue();
}

void
ExecUnit::tryIssue()
{
    if (issuing_ || fifo_.empty())
        return;

    issuing_ = true;
    const Pending pending = fifo_.front();
    fifo_.pop_front();
    current_ = pending.txn;
    const Tick enqueued_at = pending.enqueuedAt;
    Transaction &txn = txns_.get(current_);

    auto &aud = eq_.context().audit;
    if (aud.armed()) {
        aud.tapFifoWait(name(), txn.label.str(), curTick(),
                        curTick() - enqueued_at);
    }

    ufsms_.emit(txn, built_);
    if (DebugFlags::any()) {
        dtrace("Exec", "%s: issue '%s' @%0.3f us", name().c_str(),
               txn.label.c_str(), ticks::toUs(curTick()));
    }

    if (txn.ctx.span == obs::kNoSpan && ctxResolver_)
        txn.ctx.span = ctxResolver_(txn.chip);
    built_.segment.ctx = txn.ctx;

    bus_.issue(std::move(built_.segment),
               [this](std::span<std::uint8_t> capture) { finish(capture); });

    // A FIFO slot freed the moment the transaction left for the wires.
    if (spaceCallback_)
        spaceCallback_();
}

void
ExecUnit::finish(std::span<std::uint8_t> capture)
{
    TxnResult out;

    // Demux captured bytes to the Data Readers that asked for them.
    for (const ReaderSlice &slice : built_.readers) {
        babol_assert(slice.offset + slice.reader.bytes <= capture.size(),
                     "segment capture shorter than Data Reader demands");
        std::span<std::uint8_t> bytes =
            capture.subspan(slice.offset, slice.reader.bytes);
        if (slice.reader.toDram || slice.reader.eccCorrect) {
            // Hardware ECC path: sideband flips come from the LUN that
            // drove the burst. ECC corrects the capture in place and
            // the payload lands straight in DRAM.
            nand::Lun *lun = nullptr;
            for (std::uint32_t i = 0; i < bus_.packageCount(); ++i) {
                if (built_.segment.ceMask & (1u << i)) {
                    lun = bus_.package(i).outputLun();
                    break;
                }
            }
            std::span<const std::uint32_t> flips;
            if (lun)
                flips = lun->cacheRegisterFlips();
            EccReport report = packetizer_.deliver(slice.reader, bytes,
                                                   flips);
            out.eccCorrectedBits += report.correctedBits;
            out.eccFailedCodewords += report.failedCodewords;
            out.eccMaxCodewordBits = std::max(out.eccMaxCodewordBits,
                                              report.maxCodewordBits);
        } else {
            out.inlineData.append(bytes.begin(), bytes.end());
        }
    }

    ++executed_;
    issuing_ = false;

    // Free the slot before the callback: the op it resumes may submit
    // its next transaction straight away.
    InlineFunction<void(TxnResult)> done =
        std::move(txns_.get(current_).onComplete);
    txns_.release(current_);
    if (done)
        done(std::move(out));

    tryIssue();
}

} // namespace babol::core
