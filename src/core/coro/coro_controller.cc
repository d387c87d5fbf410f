#include "coro_controller.hh"

namespace babol::core {

CoroController::CoroController(EventQueue &eq, const std::string &name,
                               ChannelSystem &sys,
                               SoftControllerConfig cfg)
    : ChannelController(eq, name, sys),
      cfg_(cfg),
      cpu_(eq, name + ".cpu", cfg.cpuMhz),
      rt_(eq, name + ".rt", cpu_, sys.exec(),
          makeTxnScheduler(cfg.txnPolicy), SoftwareCosts::coroutine()),
      tasks_(makeTaskScheduler(cfg.taskPolicy)),
      env_{rt_, sys},
      live_(sys.chipCount())
{
    governMeter(cpu_.powerMeter());
}

void
CoroController::submitNow(FlashRequest req)
{
    acceptRequest(req);
    babol_assert(req.chip < sys_.chipCount(), "chip %u out of range",
                 req.chip);
    tasks_->submit(std::move(req));
    kickAdmit();
}

void
CoroController::kickAdmit()
{
    if (admitPending_ || tasks_->pendingCount() == 0)
        return;
    admitPending_ = true;
    cpu_.execute(rt_.costs().taskAdmit, [this] {
        admitPending_ = false;
        auto req = tasks_->admitNext(chipBusy_);
        if (req) {
            startRequest(std::move(*req));
            // More chips may be idle; admit again until nothing fits.
            kickAdmit();
        }
    }, "task admit");
}

Op<OpResult>
CoroController::dispatch(const FlashRequest &req)
{
    switch (req.kind) {
      case FlashOpKind::Read:
        if (cfg_.maxReadRetries > 0)
            return readWithRetryOp(env_, req, cfg_.maxReadRetries);
        return readOp(env_, req);
      case FlashOpKind::PslcRead:
        return pslcReadOp(env_, req);
      case FlashOpKind::Program:
        return programOp(env_, req, false);
      case FlashOpKind::PslcProgram:
        return programOp(env_, req, true);
      case FlashOpKind::Erase:
        return eraseOp(env_, req, false);
      case FlashOpKind::SlcErase:
        return eraseOp(env_, req, true);
      case FlashOpKind::OobRead:
        return oobReadOp(env_, req);
    }
    panic("unknown flash op kind %d", static_cast<int>(req.kind));
}

void
CoroController::startRequest(FlashRequest req)
{
    chipBusy_ |= ChipMask{1} << req.chip;
    noteOpStart(req);
    const std::uint32_t chip = req.chip;

    Live &live = live_[chip];
    babol_assert(!live.op.handle(), "chip %u already runs an op", chip);
    live.req = std::move(req);
    // The op's frame copies the request; keep the callback out of it.
    live.onComplete = std::move(live.req.onComplete);
    live.op = dispatch(live.req);
    ++liveCount_;

    // The completion hook runs inside the coroutine's final suspend;
    // defer the real completion work to ISR context so the frame can be
    // destroyed safely (and so completion costs CPU cycles).
    live.op.setOnDone([this, chip] {
        cpu_.execute(rt_.costs().completionIsr,
                     [this, chip] { completeRequest(chip); },
                     "op completion isr");
    });

    rt_.startOp(live.op.handle());
}

void
CoroController::completeRequest(std::uint32_t chip)
{
    Live &live = live_[chip];
    babol_assert(live.op.handle(), "completion for chip %u with no op",
                 chip);

    OpResult result = live.op.result(); // rethrows op-body panics
    result.submitTick = live.req.submitTick;

    chipBusy_ &= ~(ChipMask{1} << chip);
    FlashRequest req = std::move(live.req);
    req.onComplete = std::move(live.onComplete);
    live.op = Op<OpResult>(); // the frame goes back to the pool
    --liveCount_;

    finishOp(req, result);
    kickAdmit();
}

} // namespace babol::core
