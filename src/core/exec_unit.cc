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
ExecUnit::push(Transaction txn)
{
    if (!hasSpace()) {
        panic("%s: transaction FIFO overflow (scheduler ignored "
              "hasSpace)",
              name().c_str());
    }
    fifo_.push_back(Pending{std::move(txn), curTick()});
    tryIssue();
}

void
ExecUnit::tryIssue()
{
    if (issuing_ || fifo_.empty())
        return;

    issuing_ = true;
    Pending pending = std::move(fifo_.front());
    fifo_.pop_front();
    Transaction txn = std::move(pending.txn);

    auto &aud = eq_.context().audit;
    if (aud.armed()) {
        aud.tapFifoWait(name(), txn.label, curTick(),
                        curTick() - pending.enqueuedAt);
    }

    BuiltSegment built = ufsms_.emit(txn);
    dtrace("Exec", "%s: issue '%s' @%0.3f us", name().c_str(),
           txn.label.c_str(), ticks::toUs(curTick()));

    if (txn.ctx.span == obs::kNoSpan && ctxResolver_)
        txn.ctx.span = ctxResolver_(txn.chip);
    built.segment.ctx = txn.ctx;

    auto txn_holder = std::make_shared<Transaction>(std::move(txn));
    auto built_holder = std::make_shared<BuiltSegment>(std::move(built));
    bus_.issue(built_holder->segment,
               [this, txn_holder, built_holder](
                   chan::SegmentResult result) {
        finish(std::move(*txn_holder), std::move(*built_holder),
               std::move(result));
    });

    // A FIFO slot freed the moment the transaction left for the wires.
    if (spaceCallback_)
        spaceCallback_();
}

void
ExecUnit::finish(Transaction txn, BuiltSegment built,
                 chan::SegmentResult result)
{
    TxnResult out;

    // Demux captured bytes to the Data Readers that asked for them.
    for (const ReaderSlice &slice : built.readers) {
        babol_assert(slice.offset + slice.reader.bytes <=
                         result.dataOut.size(),
                     "segment capture shorter than Data Reader demands");
        std::span<std::uint8_t> bytes(result.dataOut.data() + slice.offset,
                                      slice.reader.bytes);
        if (slice.reader.toDram || slice.reader.eccCorrect) {
            // Hardware ECC path: sideband flips come from the LUN that
            // drove the burst.
            nand::Lun *lun = nullptr;
            for (std::uint32_t i = 0; i < bus_.packageCount(); ++i) {
                if (built.segment.ceMask & (1u << i)) {
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
            out.inlineData.insert(out.inlineData.end(), bytes.begin(),
                                  bytes.end());
        }
    }

    ++executed_;
    issuing_ = false;

    if (txn.onComplete)
        txn.onComplete(std::move(out));

    tryIssue();
}

} // namespace babol::core
