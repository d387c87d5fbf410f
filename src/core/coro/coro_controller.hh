/**
 * @file
 * The coroutine-environment BABOL channel controller.
 *
 * This is the paper's first software flavour: operations are C++20
 * coroutines (ops.hh), admitted by a pluggable Task Scheduler and
 * interleaved by a pluggable Transaction Scheduler, all running on a
 * modeled embedded CPU. Easy to program, hungry for processor cycles —
 * the Fig. 10 trade-off.
 */

#ifndef BABOL_CORE_CORO_CORO_CONTROLLER_HH
#define BABOL_CORE_CORO_CORO_CONTROLLER_HH

#include <memory>

#include "../controller.hh"
#include "coro_runtime.hh"
#include "ops.hh"

namespace babol::core {

class CoroController : public ChannelController
{
  public:
    CoroController(EventQueue &eq, const std::string &name,
                   ChannelSystem &sys, SoftControllerConfig cfg = {});

    const char *flavorName() const override { return "coroutine"; }

    cpu::CpuModel &cpu() { return cpu_; }
    CoroRuntime &runtime() { return rt_; }
    OpEnv &env() { return env_; }

    /** Operations currently admitted (one per busy chip at most). */
    std::size_t liveOps() const { return liveCount_; }

  protected:
    void submitNow(FlashRequest req) override;

  private:
    /** The op running on one chip. The request's callback waits here
     *  rather than in the op's copy of the request. */
    struct Live
    {
        FlashRequest req;
        std::function<void(OpResult)> onComplete;
        Op<OpResult> op;
    };

    void kickAdmit();
    void startRequest(FlashRequest req);
    void completeRequest(std::uint32_t chip);
    Op<OpResult> dispatch(const FlashRequest &req);

    SoftControllerConfig cfg_;
    cpu::CpuModel cpu_;
    CoroRuntime rt_;
    std::unique_ptr<TaskScheduler> tasks_;
    OpEnv env_;
    /** Bit c set while chip c runs an op (the task scheduler's
     *  admission filter). */
    ChipMask chipBusy_ = 0;
    /** One slot per chip (a chip runs one op at a time), reused. */
    std::vector<Live> live_;
    std::size_t liveCount_ = 0;
    bool admitPending_ = false;
};

} // namespace babol::core

#endif // BABOL_CORE_CORO_CORO_CONTROLLER_HH
