/**
 * @file
 * The software half of BABOL's asynchronous split, shared by both
 * software environments.
 *
 * Operations (coroutines or RTOS state machines) call
 * submitTransaction(); the runtime stores the transaction in the exec
 * unit's slots, charges the CPU for building and enqueueing, hands its
 * TxnRef to the pluggable Transaction Scheduler, and pumps picked
 * references into the hardware FIFO —
 * one scheduler pass per dispatch, each costing CPU cycles. All of this
 * happens while LUNs or the channel are busy, which is why software
 * can keep up with the hardware (paper §III).
 */

#ifndef BABOL_CORE_SOFT_RUNTIME_HH
#define BABOL_CORE_SOFT_RUNTIME_HH

#include <memory>

#include "cpu/cpu_model.hh"
#include "exec_unit.hh"
#include "sched.hh"
#include "soft_costs.hh"

namespace babol::core {

class SoftRuntime : public SimObject
{
  public:
    SoftRuntime(EventQueue &eq, const std::string &name,
                cpu::CpuModel &cpu, ExecUnit &exec,
                std::unique_ptr<TransactionScheduler> txn_sched,
                SoftwareCosts costs);

    cpu::CpuModel &cpu() { return cpu_; }
    ExecUnit &exec() { return exec_; }
    const SoftwareCosts &costs() const { return costs_; }
    TransactionScheduler &txnScheduler() { return *txnSched_; }
    const TxnLabels &labels() const { return labels_; }

    /**
     * Store a built transaction in the exec unit's slots, hand its
     * reference to the scheduler (charging the CPU for the build +
     * enqueue work) and make sure the dispatch pump runs.
     */
    void submitTransaction(Transaction &&txn);

    std::uint64_t transactionsSubmitted() const { return submitted_; }
    std::uint64_t schedulerPasses() const { return schedPasses_; }

  private:
    void kickPump();

    cpu::CpuModel &cpu_;
    ExecUnit &exec_;
    std::unique_ptr<TransactionScheduler> txnSched_;
    SoftwareCosts costs_;
    const TxnLabels labels_;
    bool pumpPending_ = false;
    std::uint64_t submitted_ = 0;
    std::uint64_t schedPasses_ = 0;
};

} // namespace babol::core

#endif // BABOL_CORE_SOFT_RUNTIME_HH
