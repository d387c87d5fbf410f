/**
 * @file
 * Pluggable scheduling policies (paper §V, "Operations Interleaving").
 *
 * BABOL deliberately does not pick a winner: the Task Scheduler decides
 * which admitted operation runs next, the Transaction Scheduler decides
 * the order enqueued transactions use the channel. Both are plain policy
 * objects — an SSD Architect swaps them without touching the runtime,
 * which is exactly the flexibility the paper argues hardware arbiters
 * cannot offer.
 */

#ifndef BABOL_CORE_SCHED_HH
#define BABOL_CORE_SCHED_HH

#include <array>
#include <bit>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "op_request.hh"
#include "sim/inline_vec.hh"
#include "transaction.hh"

namespace babol::core {

/**
 * Chip slots the schedulers track: a request or transaction names a chip
 * (CE index) below this. The per-chip policies walk the slots as one
 * cycle, resuming after the last-served chip, so the count also fixes
 * where the walk wraps. It is one more than a 32-bit CE mask can select;
 * keeping 33 keeps every recorded pick order.
 */
inline constexpr std::uint32_t kSchedChipSlots = 33;

/** Bit @c c set: chip @c c is busy (the controllers' chip-busy mask). */
using ChipMask = std::uint64_t;
static_assert(kSchedChipSlots <= 64, "a ChipMask holds every chip slot");

/** Panics unless @p chip is below kSchedChipSlots. */
void checkSchedChip(std::uint32_t chip);

/**
 * One FIFO per chip slot plus a mask of the non-empty ones. pop() serves
 * the first non-empty, allowed chip after the last-served one in the
 * cyclic order 0..kSchedChipSlots-1: a shift and a count of trailing
 * zeros instead of a walk over the slots.
 */
template <typename T>
class ChipCycle
{
  public:
    void
    push(std::uint32_t chip, T &&value)
    {
        checkSchedChip(chip);
        queues_[chip].push_back(std::move(value));
        nonEmpty_ |= ChipMask{1} << chip;
        ++size_;
    }

    /** Pop from the next chip in the cycle whose bit is set in
     *  @p allowed; std::nullopt when no such chip has work. */
    std::optional<T>
    pop(ChipMask allowed = ~ChipMask{0})
    {
        const ChipMask ready = nonEmpty_ & allowed;
        if (ready == 0)
            return std::nullopt;
        const std::uint32_t start = (cursor_ + 1) % kSchedChipSlots;
        const ChipMask ahead = ready >> start;
        const std::uint32_t chip = static_cast<std::uint32_t>(
            ahead ? start + std::countr_zero(ahead) : std::countr_zero(ready));
        RingQueue<T> &queue = queues_[chip];
        T value = std::move(queue.front());
        queue.pop_front();
        if (queue.empty())
            nonEmpty_ &= ~(ChipMask{1} << chip);
        --size_;
        cursor_ = chip;
        return value;
    }

    std::size_t size() const { return size_; }

  private:
    std::array<RingQueue<T>, kSchedChipSlots> queues_;
    ChipMask nonEmpty_ = 0;
    std::uint32_t cursor_ = 0;
    std::size_t size_ = 0;
};

/**
 * Orders transactions onto the channel. A transaction stays in its
 * TxnSlots slot; the scheduler queues and hands back TxnRefs.
 */
class TransactionScheduler
{
  public:
    virtual ~TransactionScheduler() = default;

    virtual const char *policyName() const = 0;

    /** Accept a ready transaction; panics on a chip past
     *  kSchedChipSlots. */
    virtual void enqueue(TxnRef txn) = 0;

    /** Pick the next transaction to hand to the execution unit. */
    virtual std::optional<TxnRef> pickNext() = 0;

    virtual std::size_t pendingCount() const = 0;
};

/** Strict submission order. */
class FifoTxnScheduler : public TransactionScheduler
{
  public:
    const char *policyName() const override { return "fifo"; }
    void enqueue(TxnRef txn) override;
    std::optional<TxnRef> pickNext() override;
    std::size_t pendingCount() const override { return queue_.size(); }

  private:
    RingQueue<TxnRef> queue_;
};

/** Round-robin across chips (the paper's simple example policy). */
class RoundRobinTxnScheduler : public TransactionScheduler
{
  public:
    const char *policyName() const override { return "round-robin"; }
    void enqueue(TxnRef txn) override;
    std::optional<TxnRef> pickNext() override;
    std::size_t pendingCount() const override { return perChip_.size(); }

  private:
    ChipCycle<TxnRef> perChip_;
};

/** Highest priority first, FIFO within a priority. Data transfers can
 *  thus overtake status polls, or reads overtake programs. */
class PriorityTxnScheduler : public TransactionScheduler
{
  public:
    const char *policyName() const override { return "priority"; }
    void enqueue(TxnRef txn) override;
    std::optional<TxnRef> pickNext() override;
    std::size_t pendingCount() const override { return pending_; }

  private:
    std::map<int, RingQueue<TxnRef>, std::greater<int>> byPriority_;
    std::size_t pending_ = 0;
};

/** Decides which pending operation request is admitted next. */
class TaskScheduler
{
  public:
    virtual ~TaskScheduler() = default;

    virtual const char *policyName() const = 0;

    /** Accept a request from the FTL; panics on a chip past
     *  kSchedChipSlots. */
    virtual void submit(FlashRequest req) = 0;

    /**
     * Admit the next request whose target chip is not set in
     * @p busy_chips. Returns std::nullopt when nothing is admissible.
     */
    virtual std::optional<FlashRequest> admitNext(ChipMask busy_chips) = 0;

    virtual std::size_t pendingCount() const = 0;
};

/** Admit in arrival order (skipping requests for busy chips). */
class FifoTaskScheduler : public TaskScheduler
{
  public:
    const char *policyName() const override { return "fifo"; }
    void submit(FlashRequest req) override;
    std::optional<FlashRequest> admitNext(ChipMask busy_chips) override;
    std::size_t pendingCount() const override { return queue_.size(); }

  private:
    RingQueue<FlashRequest> queue_;
};

/** Fair round-robin across chips. */
class FairTaskScheduler : public TaskScheduler
{
  public:
    const char *policyName() const override { return "fair"; }
    void submit(FlashRequest req) override;
    std::optional<FlashRequest> admitNext(ChipMask busy_chips) override;
    std::size_t pendingCount() const override { return perChip_.size(); }

  private:
    ChipCycle<FlashRequest> perChip_;
};

/** Highest priority first (e.g., latency-sensitive database logging). */
class PriorityTaskScheduler : public TaskScheduler
{
  public:
    const char *policyName() const override { return "priority"; }
    void submit(FlashRequest req) override;
    std::optional<FlashRequest> admitNext(ChipMask busy_chips) override;
    std::size_t pendingCount() const override { return pending_; }

  private:
    std::map<int, RingQueue<FlashRequest>, std::greater<int>> byPriority_;
    std::size_t pending_ = 0;
};

/** Factory helpers used by benches/examples. */
std::unique_ptr<TransactionScheduler>
makeTxnScheduler(const std::string &policy);
std::unique_ptr<TaskScheduler> makeTaskScheduler(const std::string &policy);

} // namespace babol::core

#endif // BABOL_CORE_SCHED_HH
