/**
 * @file
 * The Operation Execution unit (paper Fig. 5, right half).
 *
 * A small hardware FIFO of ready transactions feeds the μFSM bank. When
 * the channel frees up, the unit pops the next transaction, emits its
 * waveform segment, and — once the segment and any DMA complete — posts
 * the result back to the software environment. Because the FIFO is
 * filled *ahead of time* by the (software) Transaction Scheduler, the
 * channel never waits on software in the steady state: that is the
 * paper's asynchronous-decoupling principle made concrete.
 *
 * The FIFO holds references: each transaction sits in the unit's
 * TxnSlots from submit until it completes, and the segment is built
 * straight from its slot.
 */

#ifndef BABOL_CORE_EXEC_UNIT_HH
#define BABOL_CORE_EXEC_UNIT_HH

#include <functional>

#include "chan/bus.hh"
#include "sim/inline_vec.hh"
#include "ufsm.hh"

namespace babol::core {

class ExecUnit : public SimObject
{
  public:
    ExecUnit(EventQueue &eq, const std::string &name, chan::ChannelBus &bus,
             Packetizer &packetizer, std::uint32_t fifo_depth = 4);

    chan::ChannelBus &bus() { return bus_; }
    Packetizer &packetizer() { return packetizer_; }
    const UfsmBank &ufsms() const { return ufsms_; }

    std::uint32_t fifoDepth() const { return fifoDepth_; }
    std::uint32_t fifoUsed() const
    {
        return static_cast<std::uint32_t>(fifo_.size());
    }
    bool hasSpace() const { return fifo_.size() < fifoDepth_; }

    /** True when no transaction is queued or on the wires. */
    bool idle() const { return fifo_.empty() && !issuing_; }

    /** The slots transactions live in from submit to completion. */
    TxnSlots &transactions() { return txns_; }

    /** Push a ready transaction parked in transactions(); panics when
     *  the FIFO is full (the Transaction Scheduler must respect
     *  hasSpace()). The unit frees the slot when the transaction
     *  completes. */
    void push(TxnRef txn);

    /** Invoked whenever a FIFO slot frees up (doorbell to the
     *  Transaction Scheduler). */
    void setSpaceCallback(std::function<void()> cb)
    {
        spaceCallback_ = std::move(cb);
    }

    /**
     * Resolver mapping a chip to the span of the op running on it;
     * installed by the channel controller so transactions that carry no
     * explicit context are attributed to their op at issue time.
     */
    void setCtxResolver(std::function<obs::SpanId(std::uint32_t)> fn)
    {
        ctxResolver_ = std::move(fn);
    }

    std::uint64_t transactionsExecuted() const { return executed_; }

  private:
    void tryIssue();
    void finish(std::span<std::uint8_t> capture);

    chan::ChannelBus &bus_;
    Packetizer &packetizer_;
    UfsmBank ufsms_;
    /** FIFO entry: the transaction plus its arrival tick, so the pop
     *  path can report queueing delay to the conformance auditor. */
    struct Pending
    {
        TxnRef txn;
        Tick enqueuedAt = 0;
    };

    TxnSlots txns_;
    std::uint32_t fifoDepth_;
    RingQueue<Pending> fifo_;
    bool issuing_ = false;
    /** The one transaction on the wires and its segment: the unit
     *  issues one at a time, so the segment is reused in place. */
    TxnRef current_;
    BuiltSegment built_;
    std::function<void()> spaceCallback_;
    std::function<obs::SpanId(std::uint32_t)> ctxResolver_;
    std::uint64_t executed_ = 0;
};

} // namespace babol::core

#endif // BABOL_CORE_EXEC_UNIT_HH
