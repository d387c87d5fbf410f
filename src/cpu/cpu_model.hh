/**
 * @file
 * The embedded-processor cost model.
 *
 * BABOL's Operation Scheduling runs in software on an embedded core (a
 * 150 MHz MicroBlaze soft-core up to a 1 GHz Zynq ARM in the paper).
 * Every software action — admitting an operation, building and enqueuing
 * a transaction, a context switch, a completion interrupt — is charged
 * in CPU cycles and serialized through this model, so software overhead
 * and CPU contention shape the results exactly as processor frequency
 * did in the paper's Fig. 10.
 *
 * Two priority levels model the usual firmware split: interrupt-side
 * work (completion handling, hardware-FIFO refill) runs ahead of
 * task-side work (polling loops, bookkeeping). Items are not preempted
 * mid-flight — each is microseconds long, like the real critical
 * sections they stand for.
 */

#ifndef BABOL_CPU_CPU_MODEL_HH
#define BABOL_CPU_CPU_MODEL_HH

#include <cstdint>

#include "obs/sim_context.hh"
#include "sim/inline_callback.hh"
#include "sim/inline_vec.hh"
#include "sim/sim_object.hh"

namespace babol::cpu {

enum class CpuPriority : std::uint8_t {
    Normal, //!< task context (operation logic, polling loops)
    High,   //!< interrupt context (completions, dispatch to hardware)
};

class CpuModel : public SimObject
{
  public:
    /** One work item's continuation. */
    using Work = InlineFunction<void()>;

    CpuModel(EventQueue &eq, const std::string &name, std::uint32_t mhz)
        : SimObject(eq, name), mhz_(mhz),
          power_(eq, name, {"busy"},
                 static_cast<std::uint64_t>(mhz) *
                     eq.context().power.params().cpuIdleUwPerMhz / 1000),
          activeMw_(static_cast<std::uint64_t>(mhz) *
                    eq.context().power.params().cpuActiveUwPerMhz / 1000)
    {
        babol_assert(mhz > 0, "CPU frequency must be positive");
    }

    std::uint32_t frequencyMhz() const { return mhz_; }

    /** Duration of @p cycles at the configured frequency. */
    Tick
    cyclesToTicks(std::uint64_t cycles) const
    {
        // ticks per cycle = 1e12 / (mhz * 1e6) = 1e6 / mhz.
        return cycles * (1000000ull) / mhz_;
    }

    /**
     * Run @p fn after spending @p cycles of CPU time. High-priority
     * items overtake queued normal-priority ones (but never interrupt
     * the item already executing).
     */
    void
    execute(std::uint64_t cycles, Work fn,
            const char *what = "cpu work",
            CpuPriority prio = CpuPriority::Normal)
    {
        Item item{cycles, std::move(fn), what};
        if (prio == CpuPriority::High)
            highQueue_.push_back(std::move(item));
        else
            normalQueue_.push_back(std::move(item));
        totalCycles_ += cycles;
        ++workItems_;
        pump();
    }

    /** True when no work is queued or running. */
    bool idle() const { return !running_ && highQueue_.empty() &&
                               normalQueue_.empty(); }

    /** Cumulative busy time (utilization = busyTicks / elapsed). */
    Tick busyTicks() const { return busyTicks_; }
    std::uint64_t totalCycles() const { return totalCycles_; }
    std::uint64_t workItems() const { return workItems_; }

    /** The core's power rail (active cycles + clock-gated idle). */
    obs::power::Meter &powerMeter() { return power_; }

  private:
    struct Item
    {
        std::uint64_t cycles = 0;
        Work fn;
        const char *what = nullptr;
    };

    void
    pump()
    {
        if (running_)
            return;
        RingQueue<Item> &queue =
            !highQueue_.empty() ? highQueue_ : normalQueue_;
        if (queue.empty())
            return;
        Item &item = queue.front();
        const std::uint64_t cycles = item.cycles;
        const char *what = item.what;
        // One item runs at a time, so its continuation waits here and
        // the event captures only `this`.
        running_ = true;
        runningFn_ = std::move(item.fn);
        queue.pop_front();
        Tick dur = cyclesToTicks(cycles);
        busyTicks_ += dur;
        power_.charge(0, curTick(), curTick() + dur, activeMw_);
        eq_.scheduleIn(dur, [this] {
            running_ = false;
            Work fn = std::move(runningFn_);
            fn();
            pump();
        }, what);
    }

    std::uint32_t mhz_;
    obs::power::Meter power_;
    std::uint64_t activeMw_;
    bool running_ = false;
    Work runningFn_;
    RingQueue<Item> highQueue_;
    RingQueue<Item> normalQueue_;
    Tick busyTicks_ = 0;
    std::uint64_t totalCycles_ = 0;
    std::uint64_t workItems_ = 0;
};

} // namespace babol::cpu

#endif // BABOL_CPU_CPU_MODEL_HH
