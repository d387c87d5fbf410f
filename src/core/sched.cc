#include "sched.hh"

#include "sim/logging.hh"

namespace babol::core {

void
checkSchedChip(std::uint32_t chip)
{
    if (chip >= kSchedChipSlots) {
        panic("chip %u out of range: the schedulers track chips 0..%u",
              chip, kSchedChipSlots - 1);
    }
}

namespace {

bool
isBusy(ChipMask busy_chips, std::uint32_t chip)
{
    return (busy_chips >> chip) & 1;
}

} // namespace

// --- Transaction schedulers -------------------------------------------

void
FifoTxnScheduler::enqueue(TxnRef txn)
{
    checkSchedChip(txn.chip);
    queue_.push_back(std::move(txn));
}

std::optional<TxnRef>
FifoTxnScheduler::pickNext()
{
    if (queue_.empty())
        return std::nullopt;
    const TxnRef txn = queue_.front();
    queue_.pop_front();
    return txn;
}

void
RoundRobinTxnScheduler::enqueue(TxnRef txn)
{
    perChip_.push(txn.chip, std::move(txn));
}

std::optional<TxnRef>
RoundRobinTxnScheduler::pickNext()
{
    return perChip_.pop();
}

void
PriorityTxnScheduler::enqueue(TxnRef txn)
{
    checkSchedChip(txn.chip);
    byPriority_[txn.priority].push_back(std::move(txn));
    ++pending_;
}

std::optional<TxnRef>
PriorityTxnScheduler::pickNext()
{
    for (auto &[prio, queue] : byPriority_) {
        if (!queue.empty()) {
            const TxnRef txn = queue.front();
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
    checkSchedChip(req.chip);
    queue_.push_back(std::move(req));
}

std::optional<FlashRequest>
FifoTaskScheduler::admitNext(ChipMask busy_chips)
{
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (!isBusy(busy_chips, queue_[i].chip)) {
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
    perChip_.push(req.chip, std::move(req));
}

std::optional<FlashRequest>
FairTaskScheduler::admitNext(ChipMask busy_chips)
{
    return perChip_.pop(~busy_chips);
}

void
PriorityTaskScheduler::submit(FlashRequest req)
{
    checkSchedChip(req.chip);
    byPriority_[req.priority].push_back(std::move(req));
    ++pending_;
}

std::optional<FlashRequest>
PriorityTaskScheduler::admitNext(ChipMask busy_chips)
{
    for (auto &[prio, queue] : byPriority_) {
        for (std::size_t i = 0; i < queue.size(); ++i) {
            if (!isBusy(busy_chips, queue[i].chip)) {
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
