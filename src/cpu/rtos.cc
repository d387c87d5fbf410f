#include "rtos.hh"

#include <algorithm>

namespace babol::cpu {

RtosKernel::RtosKernel(EventQueue &eq, const std::string &name,
                       CpuModel &cpu, RtosCosts costs)
    : SimObject(eq, name), cpu_(cpu), costs_(costs)
{}

void
RtosKernel::createTask(RtosTask *task)
{
    babol_assert(task != nullptr, "null task");
    babol_assert(!isAlive(task), "task '%s' registered twice",
                 task->taskName().c_str());
    alive_.push_back(task);
    cpu_.execute(costs_.taskCreate, [] {}, "rtos task create");
}

void
RtosKernel::destroyTask(RtosTask *task)
{
    auto it = std::find(alive_.begin(), alive_.end(), task);
    if (it != alive_.end())
        alive_.erase(it);
}

bool
RtosKernel::isAlive(const RtosTask *task) const
{
    return std::find(alive_.begin(), alive_.end(), task) != alive_.end();
}

void
RtosKernel::enqueue(RtosTask *to, std::uint64_t msg)
{
    babol_assert(isAlive(to), "message to unregistered task");
    pending_.push_back({to, msg, nextSeq_++});
    pump();
}

void
RtosKernel::send(RtosTask *to, std::uint64_t msg)
{
    cpu_.execute(costs_.queueSend, [] {}, "rtos queue send");
    enqueue(to, msg);
}

void
RtosKernel::sendFromIsr(RtosTask *to, std::uint64_t msg)
{
    cpu_.execute(costs_.isrEntry + costs_.queueSend, [] {},
                 "rtos isr send", CpuPriority::High);
    enqueue(to, msg);
}

void
RtosKernel::pump()
{
    if (dispatchScheduled_ || pending_.empty())
        return;
    dispatchScheduled_ = true;
    cpu_.execute(costs_.contextSwitch + costs_.queueReceive,
                 [this] { dispatchOne(); }, "rtos dispatch");
}

void
RtosKernel::dispatchOne()
{
    dispatchScheduled_ = false;
    if (pending_.empty())
        return;

    // Pick the highest-priority pending message (FIFO within a priority),
    // as a preemptive-priority kernel would.
    std::size_t best = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const Pending &it = pending_[i];
        const Pending &b = pending_[best];
        if (it.task->priority() > b.task->priority() ||
            (it.task->priority() == b.task->priority() &&
             it.seq < b.seq)) {
            best = i;
        }
    }
    Pending p = pending_[best];
    pending_.erase(best);

    if (isAlive(p.task)) {
        ++delivered_;
        p.task->onMessage(*this, p.msg);
    }
    pump();
}

} // namespace babol::cpu
