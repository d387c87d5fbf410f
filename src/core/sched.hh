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

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "op_request.hh"
#include "sim/inline_vec.hh"
#include "transaction.hh"

namespace babol::core {

/** Orders transactions onto the channel. */
class TransactionScheduler
{
  public:
    virtual ~TransactionScheduler() = default;

    virtual const char *policyName() const = 0;

    /** Accept a ready transaction. */
    virtual void enqueue(Transaction txn) = 0;

    /** Pick the next transaction to hand to the execution unit. */
    virtual std::optional<Transaction> pickNext() = 0;

    virtual std::size_t pendingCount() const = 0;
};

/** Strict submission order. */
class FifoTxnScheduler : public TransactionScheduler
{
  public:
    const char *policyName() const override { return "fifo"; }
    void enqueue(Transaction txn) override;
    std::optional<Transaction> pickNext() override;
    std::size_t pendingCount() const override { return queue_.size(); }

  private:
    RingQueue<Transaction> queue_;
};

/** Round-robin across chips (the paper's simple example policy). */
class RoundRobinTxnScheduler : public TransactionScheduler
{
  public:
    const char *policyName() const override { return "round-robin"; }
    void enqueue(Transaction txn) override;
    std::optional<Transaction> pickNext() override;
    std::size_t pendingCount() const override { return pending_; }

  private:
    std::map<std::uint32_t, RingQueue<Transaction>> perChip_;
    std::uint32_t cursor_ = 0;
    std::size_t pending_ = 0;
};

/** Highest priority first, FIFO within a priority. Data transfers can
 *  thus overtake status polls, or reads overtake programs. */
class PriorityTxnScheduler : public TransactionScheduler
{
  public:
    const char *policyName() const override { return "priority"; }
    void enqueue(Transaction txn) override;
    std::optional<Transaction> pickNext() override;
    std::size_t pendingCount() const override { return pending_; }

  private:
    std::map<int, RingQueue<Transaction>, std::greater<int>> byPriority_;
    std::size_t pending_ = 0;
};

/** Decides which pending operation request is admitted next. */
class TaskScheduler
{
  public:
    virtual ~TaskScheduler() = default;

    virtual const char *policyName() const = 0;

    /** Accept a request from the FTL. */
    virtual void submit(FlashRequest req) = 0;

    /**
     * Admit the next request whose target chip is free, according to
     * @p chip_free. Returns std::nullopt when nothing is admissible.
     */
    virtual std::optional<FlashRequest>
    admitNext(const std::function<bool(std::uint32_t)> &chip_free) = 0;

    virtual std::size_t pendingCount() const = 0;
};

/** Admit in arrival order (skipping requests for busy chips). */
class FifoTaskScheduler : public TaskScheduler
{
  public:
    const char *policyName() const override { return "fifo"; }
    void submit(FlashRequest req) override;
    std::optional<FlashRequest>
    admitNext(const std::function<bool(std::uint32_t)> &chip_free) override;
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
    std::optional<FlashRequest>
    admitNext(const std::function<bool(std::uint32_t)> &chip_free) override;
    std::size_t pendingCount() const override { return pending_; }

  private:
    std::map<std::uint32_t, RingQueue<FlashRequest>> perChip_;
    std::uint32_t cursor_ = 0;
    std::size_t pending_ = 0;
};

/** Highest priority first (e.g., latency-sensitive database logging). */
class PriorityTaskScheduler : public TaskScheduler
{
  public:
    const char *policyName() const override { return "priority"; }
    void submit(FlashRequest req) override;
    std::optional<FlashRequest>
    admitNext(const std::function<bool(std::uint32_t)> &chip_free) override;
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
