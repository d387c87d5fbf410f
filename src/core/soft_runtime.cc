#include "soft_runtime.hh"

namespace babol::core {

TxnLabels::TxnLabels(std::uint32_t chips)
    : readStatus("READ_STATUS c%u", chips),
      readCa("READ.ca c%u", chips),
      readXfer("READ.xfer c%u", chips),
      pslcReadCa("PSLC_READ.ca c%u", chips),
      pslcReadXfer("PSLC_READ.xfer c%u", chips),
      oobReadCa("OOB_READ.ca c%u", chips),
      oobReadXfer("OOB_READ.xfer c%u", chips),
      program("PROGRAM c%u", chips),
      erase("ERASE c%u", chips)
{}

SoftRuntime::SoftRuntime(EventQueue &eq, const std::string &name,
                         cpu::CpuModel &cpu, ExecUnit &exec,
                         std::unique_ptr<TransactionScheduler> txn_sched,
                         SoftwareCosts costs)
    : SimObject(eq, name),
      cpu_(cpu),
      exec_(exec),
      txnSched_(std::move(txn_sched)),
      costs_(costs),
      labels_(exec.bus().packageCount())
{
    babol_assert(txnSched_ != nullptr, "runtime needs a txn scheduler");
    exec_.setSpaceCallback([this] { kickPump(); });
}

void
SoftRuntime::submitTransaction(Transaction &&txn)
{
    ++submitted_;
    // High-priority transactions (data transfers) ride the interrupt-
    // side CPU lane so a ready page never waits behind polling work.
    cpu::CpuPriority prio = txn.priority > 0 ? cpu::CpuPriority::High
                                             : cpu::CpuPriority::Normal;
    // Stored once; from here on only its TxnRef moves.
    const TxnRef ref = exec_.transactions().park(std::move(txn));
    cpu_.execute(costs_.buildTransaction + costs_.submitToHw,
                 [this, ref] {
        txnSched_->enqueue(ref);
        kickPump();
    }, "txn build+submit", prio);
}

void
SoftRuntime::kickPump()
{
    if (pumpPending_)
        return;
    if (txnSched_->pendingCount() == 0)
        return;
    if (!exec_.hasSpace())
        return; // re-kicked by the exec unit's space callback
    pumpPending_ = true;
    cpu_.execute(costs_.schedulerPass, [this] {
        pumpPending_ = false;
        ++schedPasses_;
        // One pass drains as many ready transactions as the hardware
        // FIFO can take; the extra dispatches are cheap relative to the
        // pass itself (queue-walk amortization).
        std::uint32_t dispatched = 0;
        while (exec_.hasSpace()) {
            const std::optional<TxnRef> txn = txnSched_->pickNext();
            if (!txn)
                break;
            exec_.push(*txn);
            ++dispatched;
        }
        if (dispatched > 1) {
            cpu_.execute(costs_.dispatchExtra * (dispatched - 1), [] {},
                         "txn dispatch extras", cpu::CpuPriority::High);
        }
        kickPump();
    }, "txn scheduler pass", cpu::CpuPriority::High);
}

} // namespace babol::core
