/**
 * @file
 * The RTOS-environment BABOL channel controller (the paper's second
 * software flavour).
 *
 * Identical architecture to the coroutine controller — software
 * operation scheduling feeding the hardware execution unit — but the
 * operations are explicit state machines on a FreeRTOS-style kernel,
 * with the leaner cost profile that lets this flavour keep up on slow
 * soft-cores (Fig. 10's 150 MHz column).
 */

#ifndef BABOL_CORE_RTOS_ENV_RTOS_CONTROLLER_HH
#define BABOL_CORE_RTOS_ENV_RTOS_CONTROLLER_HH

#include <memory>
#include <unordered_map>

#include "../controller.hh"
#include "rtos_ops.hh"
#include "sim/slot_pool.hh"

namespace babol::core {

class RtosController : public ChannelController
{
  public:
    RtosController(EventQueue &eq, const std::string &name,
                   ChannelSystem &sys, SoftControllerConfig cfg = {});

    const char *flavorName() const override { return "rtos"; }

    cpu::CpuModel &cpu() { return cpu_; }
    cpu::RtosKernel &kernel() { return kernel_; }
    SoftRuntime &runtime() { return rt_; }

    /** Called by an op's finish(); defers teardown out of task context. */
    void completeRequest(std::uint32_t chip, OpResult res);

    /** Read-retry budget (SET FEATURES level sweeps) per read op. */
    std::uint32_t maxReadRetries() const { return cfg_.maxReadRetries; }

    std::size_t liveOps() const { return liveCount_; }

  protected:
    void submitNow(FlashRequest req) override;

  private:
    void kickAdmit();
    void startRequest(FlashRequest req);

    SoftControllerConfig cfg_;
    cpu::CpuModel cpu_;
    cpu::RtosKernel kernel_;
    SoftRuntime rt_;
    std::unique_ptr<TaskScheduler> tasks_;
    /** Bit c set while chip c runs an op (the task scheduler's
     *  admission filter). */
    ChipMask chipBusy_ = 0;
    /** The op task running on each chip, in storage reused op after
     *  op, and its result while the completion ISR is pending. */
    std::vector<InPlaceSlot<RtosOpBase>> live_;
    std::vector<OpResult> doneResult_;
    std::size_t liveCount_ = 0;
    std::uint64_t nextId_ = 0;
    bool admitPending_ = false;
};

} // namespace babol::core

#endif // BABOL_CORE_RTOS_ENV_RTOS_CONTROLLER_HH
