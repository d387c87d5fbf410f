/**
 * @file
 * A miniature real-time kernel in the FreeRTOS mold.
 *
 * Tasks are prioritized actors that receive 64-bit messages through the
 * kernel; message dispatch charges realistic context-switch and queue
 * costs to the CpuModel. This substrate backs BABOL's RTOS software
 * environment: operations are written as explicit state machines that
 * exchange messages — markedly cheaper per step than coroutines, and
 * markedly more demanding of the programmer, exactly the trade-off the
 * paper reports (§V Discussion, Fig. 10/11).
 */

#ifndef BABOL_CPU_RTOS_HH
#define BABOL_CPU_RTOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu_model.hh"
#include "sim/inline_vec.hh"

namespace babol::cpu {

class RtosKernel;

/** Cycle costs of kernel primitives (FreeRTOS-on-ARM ballpark). */
struct RtosCosts
{
    std::uint64_t contextSwitch = 350;
    std::uint64_t queueSend = 180;
    std::uint64_t queueReceive = 180;
    std::uint64_t isrEntry = 300;
    std::uint64_t taskCreate = 900;
};

/** Base class for RTOS tasks (actors). */
class RtosTask
{
  public:
    RtosTask(std::string name, int priority)
        : name_(std::move(name)), priority_(priority)
    {}
    virtual ~RtosTask() = default;

    /** Deliver one message; runs in (simulated) task context. */
    virtual void onMessage(RtosKernel &kernel, std::uint64_t msg) = 0;

    const std::string &taskName() const { return name_; }
    int priority() const { return priority_; }

  private:
    std::string name_;
    int priority_;
};

class RtosKernel : public SimObject
{
  public:
    RtosKernel(EventQueue &eq, const std::string &name, CpuModel &cpu,
               RtosCosts costs = {});

    CpuModel &cpu() { return cpu_; }
    const RtosCosts &costs() const { return costs_; }

    /** Register a task; charges the creation cost. */
    void createTask(RtosTask *task);

    /** Unregister; undelivered messages to it are dropped. */
    void destroyTask(RtosTask *task);

    /** Post a message from task context (xQueueSend). */
    void send(RtosTask *to, std::uint64_t msg);

    /** Post a message from interrupt context (xQueueSendFromISR). */
    void sendFromIsr(RtosTask *to, std::uint64_t msg);

    std::uint64_t messagesDelivered() const { return delivered_; }

  private:
    struct Pending
    {
        RtosTask *task;
        std::uint64_t msg;
        std::uint64_t seq;
    };

    void enqueue(RtosTask *to, std::uint64_t msg);
    bool isAlive(const RtosTask *task) const;
    void pump();
    void dispatchOne();

    CpuModel &cpu_;
    RtosCosts costs_;
    RingQueue<Pending> pending_;
    /** Registered tasks: a handful (one op per chip), so a flat list. */
    std::vector<RtosTask *> alive_;
    bool dispatchScheduled_ = false;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t delivered_ = 0;
};

} // namespace babol::cpu

#endif // BABOL_CPU_RTOS_HH
