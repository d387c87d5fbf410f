#include "sched.hh"

#include "sim/logging.hh"

namespace babol::core {

// --- Transaction schedulers -------------------------------------------

void
FifoTxnScheduler::enqueue(Transaction txn)
{
    queue_.push_back(std::move(txn));
}

std::optional<Transaction>
FifoTxnScheduler::pickNext()
{
    if (queue_.empty())
        return std::nullopt;
    Transaction txn = std::move(queue_.front());
    queue_.pop_front();
    return txn;
}

void
RoundRobinTxnScheduler::enqueue(Transaction txn)
{
    perChip_[txn.chip].push_back(std::move(txn));
    ++pending_;
}

std::optional<Transaction>
RoundRobinTxnScheduler::pickNext()
{
    if (pending_ == 0)
        return std::nullopt;
    // Walk chips starting after the last-served one.
    for (std::uint32_t step = 0; step < 33; ++step) {
        std::uint32_t chip = (cursor_ + 1 + step) % 33;
        auto it = perChip_.find(chip);
        if (it != perChip_.end() && !it->second.empty()) {
            Transaction txn = std::move(it->second.front());
            it->second.pop_front();
            --pending_;
            cursor_ = chip;
            return txn;
        }
    }
    panic("round-robin scheduler lost track of %zu pending transactions",
          pending_);
}

void
PriorityTxnScheduler::enqueue(Transaction txn)
{
    byPriority_[txn.priority].push_back(std::move(txn));
    ++pending_;
}

std::optional<Transaction>
PriorityTxnScheduler::pickNext()
{
    for (auto &[prio, queue] : byPriority_) {
        if (!queue.empty()) {
            Transaction txn = std::move(queue.front());
            queue.pop_front();
            --pending_;
            return txn;
        }
    }
    return std::nullopt;
}

// --- Task schedulers ---------------------------------------------------

void
FifoTaskScheduler::submit(FlashRequest req)
{
    queue_.push_back(std::move(req));
}

std::optional<FlashRequest>
FifoTaskScheduler::admitNext(
    const std::function<bool(std::uint32_t)> &chip_free)
{
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (chip_free(queue_[i].chip)) {
            FlashRequest req = std::move(queue_[i]);
            queue_.erase(i);
            return req;
        }
    }
    return std::nullopt;
}

void
FairTaskScheduler::submit(FlashRequest req)
{
    perChip_[req.chip].push_back(std::move(req));
    ++pending_;
}

std::optional<FlashRequest>
FairTaskScheduler::admitNext(
    const std::function<bool(std::uint32_t)> &chip_free)
{
    if (pending_ == 0)
        return std::nullopt;
    for (std::uint32_t step = 0; step < 33; ++step) {
        std::uint32_t chip = (cursor_ + 1 + step) % 33;
        auto it = perChip_.find(chip);
        if (it != perChip_.end() && !it->second.empty() &&
            chip_free(chip)) {
            FlashRequest req = std::move(it->second.front());
            it->second.pop_front();
            --pending_;
            cursor_ = chip;
            return req;
        }
    }
    return std::nullopt;
}

void
PriorityTaskScheduler::submit(FlashRequest req)
{
    byPriority_[req.priority].push_back(std::move(req));
    ++pending_;
}

std::optional<FlashRequest>
PriorityTaskScheduler::admitNext(
    const std::function<bool(std::uint32_t)> &chip_free)
{
    for (auto &[prio, queue] : byPriority_) {
        for (std::size_t i = 0; i < queue.size(); ++i) {
            if (chip_free(queue[i].chip)) {
                FlashRequest req = std::move(queue[i]);
                queue.erase(i);
                --pending_;
                return req;
            }
        }
    }
    return std::nullopt;
}

// --- Factories ----------------------------------------------------------

std::unique_ptr<TransactionScheduler>
makeTxnScheduler(const std::string &policy)
{
    if (policy == "fifo")
        return std::make_unique<FifoTxnScheduler>();
    if (policy == "round-robin")
        return std::make_unique<RoundRobinTxnScheduler>();
    if (policy == "priority")
        return std::make_unique<PriorityTxnScheduler>();
    fatal("unknown transaction scheduler policy '%s'", policy.c_str());
}

std::unique_ptr<TaskScheduler>
makeTaskScheduler(const std::string &policy)
{
    if (policy == "fifo")
        return std::make_unique<FifoTaskScheduler>();
    if (policy == "fair")
        return std::make_unique<FairTaskScheduler>();
    if (policy == "priority")
        return std::make_unique<PriorityTaskScheduler>();
    fatal("unknown task scheduler policy '%s'", policy.c_str());
}

const char *
toString(FlashOpKind kind)
{
    switch (kind) {
      case FlashOpKind::Read:
        return "READ";
      case FlashOpKind::PslcRead:
        return "PSLC_READ";
      case FlashOpKind::Program:
        return "PROGRAM";
      case FlashOpKind::PslcProgram:
        return "PSLC_PROGRAM";
      case FlashOpKind::Erase:
        return "ERASE";
      case FlashOpKind::SlcErase:
        return "SLC_ERASE";
      case FlashOpKind::OobRead:
        return "OOB_READ";
    }
    return "?";
}

} // namespace babol::core
