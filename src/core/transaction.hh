/**
 * @file
 * Transactions: atomic, queueable groups of waveform instructions.
 *
 * A transaction is never descheduled once its waveform segment starts
 * (paper §II). Software builds transactions ahead of time and enqueues
 * them; the Transaction Scheduler decides their order; the Operation
 * Execution unit turns them into bus segments. The completion callback
 * re-enters the software environment (coroutine resume or RTOS message).
 */

#ifndef BABOL_CORE_TRANSACTION_HH
#define BABOL_CORE_TRANSACTION_HH

#include <cstdint>

#include "instruction.hh"
#include "obs/label.hh"
#include "obs/span.hh"
#include "sim/inline_callback.hh"
#include "sim/inline_vec.hh"
#include "sim/slot_pool.hh"

namespace babol::core {

/** What a finished transaction hands back to the operation logic. */
struct TxnResult
{
    /** Bytes captured by inline (non-DMA) Data Reader instructions
     *  (status bytes and IDs stay inline; a parameter page spills). */
    InlineVec<std::uint8_t, 16> inlineData;

    /** ECC outcome for DMA-ed reads with correction enabled. */
    std::uint32_t eccCorrectedBits = 0;
    std::uint32_t eccFailedCodewords = 0;
    /** Raw errors in the dirtiest codeword (near-miss margin input). */
    std::uint32_t eccMaxCodewordBits = 0;
};

/**
 * The hot ops' transaction labels ("READ.ca c3"), formatted once per
 * chip when a software controller is built instead of once per
 * transaction. Both software environments emit the same labels.
 */
struct TxnLabels
{
    explicit TxnLabels(std::uint32_t chips);

    obs::ChipLabels readStatus, readCa, readXfer, pslcReadCa, pslcReadXfer,
        oobReadCa, oobReadXfer, program, erase;
};

struct Transaction
{
    /** Target chip (CE index) — used by schedulers for fairness; the
     *  actual CE selection comes from the ChipControl instruction. */
    std::uint32_t chip = 0;

    /** Scheduling priority (higher first, policy permitting). */
    int priority = 0;

    /** Trace label, e.g. "READ_STATUS c2". */
    obs::Label label;

    /** Longest instruction list the ops build (a program with its OOB
     *  tail is six). */
    static constexpr std::size_t kMaxInstructions = 8;

    InlineVec<Instruction, kMaxInstructions> instructions;

    /** Span of the controller op this transaction executes for; when
     *  left empty the exec unit resolves it from the op's chip. */
    obs::TraceContext ctx;

    /** Called when the segment (and any DMA) completes. */
    InlineFunction<void(TxnResult)> onComplete;

    Transaction() = default;
    Transaction(std::uint32_t chip_, obs::Label label_)
        : chip(chip_), label(label_)
    {}

    Transaction &
    add(Instruction ins)
    {
        instructions.push_back(std::move(ins));
        return *this;
    }
};

/**
 * A submitted transaction as the scheduler queues and the exec FIFO hold
 * it: its slot's handle, plus copies of the two fields the scheduling
 * policies read, so a pick never touches the slot.
 */
struct TxnRef
{
    SlotPool<Transaction>::Handle slot;
    std::uint32_t chip = 0;
    int priority = 0;
};

/**
 * Where each transaction lives from submit until its segment completes.
 * It is moved in once; the CPU item, the scheduler and the exec FIFO
 * pass its TxnRef, and the exec unit builds the segment from the slot
 * and frees it when the transaction completes (DESIGN.md §16).
 */
class TxnSlots
{
  public:
    TxnRef
    park(Transaction &&txn)
    {
        const std::uint32_t chip = txn.chip;
        const int priority = txn.priority;
        return {slots_.park(std::move(txn)), chip, priority};
    }

    Transaction &get(TxnRef ref) { return slots_.get(ref.slot); }
    void release(TxnRef ref) { slots_.release(ref.slot); }

    /** Transactions submitted and not yet completed. */
    std::size_t live() const { return slots_.live(); }

  private:
    SlotPool<Transaction> slots_;
};

} // namespace babol::core

#endif // BABOL_CORE_TRANSACTION_HH
