#include "rtos_controller.hh"

namespace babol::core {

RtosController::RtosController(EventQueue &eq, const std::string &name,
                               ChannelSystem &sys,
                               SoftControllerConfig cfg)
    : ChannelController(eq, name, sys),
      cfg_(cfg),
      cpu_(eq, name + ".cpu", cfg.cpuMhz),
      kernel_(eq, name + ".kernel", cpu_),
      rt_(eq, name + ".rt", cpu_, sys.exec(),
          makeTxnScheduler(cfg.txnPolicy), SoftwareCosts::rtos()),
      tasks_(makeTaskScheduler(cfg.taskPolicy)),
      chipBusy_(sys.chipCount(), false)
{
    governMeter(cpu_.powerMeter());
}

void
RtosController::submitNow(FlashRequest req)
{
    acceptRequest(req);
    babol_assert(req.chip < chipBusy_.size(), "chip %u out of range",
                 req.chip);
    tasks_->submit(std::move(req));
    kickAdmit();
}

void
RtosController::kickAdmit()
{
    if (admitPending_ || tasks_->pendingCount() == 0)
        return;
    admitPending_ = true;
    cpu_.execute(rt_.costs().taskAdmit, [this] {
        admitPending_ = false;
        auto req = tasks_->admitNext(
            [this](std::uint32_t chip) { return !chipBusy_[chip]; });
        if (req) {
            startRequest(std::move(*req));
            kickAdmit();
        }
    }, "rtos task admit");
}

void
RtosController::startRequest(FlashRequest req)
{
    chipBusy_[req.chip] = true;
    noteOpStart(req);
    std::uint64_t id = nextId_++;

    std::unique_ptr<RtosOpBase> op;
    switch (req.kind) {
      case FlashOpKind::Read:
        op = std::make_unique<RtosReadOp>(*this, id, std::move(req), false);
        break;
      case FlashOpKind::PslcRead:
        op = std::make_unique<RtosReadOp>(*this, id, std::move(req), true);
        break;
      case FlashOpKind::Program:
        op = std::make_unique<RtosProgramOp>(*this, id, std::move(req),
                                             false);
        break;
      case FlashOpKind::PslcProgram:
        op = std::make_unique<RtosProgramOp>(*this, id, std::move(req),
                                             true);
        break;
      case FlashOpKind::Erase:
        op = std::make_unique<RtosEraseOp>(*this, id, std::move(req),
                                           false);
        break;
      case FlashOpKind::SlcErase:
        op = std::make_unique<RtosEraseOp>(*this, id, std::move(req), true);
        break;
      case FlashOpKind::OobRead:
        op = std::make_unique<RtosOobReadOp>(*this, id, std::move(req));
        break;
    }
    babol_assert(op != nullptr, "unknown flash op kind");

    RtosOpBase *raw = op.get();
    live_.emplace(id, std::move(op));
    kernel_.createTask(raw);
    kernel_.send(raw, rtos_msg::kStart);
}

void
RtosController::completeRequest(std::uint64_t id, OpResult res)
{
    // Called from inside the op's onMessage; defer teardown so the task
    // object is never deleted under its own feet.
    cpu_.execute(rt_.costs().completionIsr, [this, id, res] {
        auto it = live_.find(id);
        babol_assert(it != live_.end(), "completion for unknown op");
        FlashRequest req = std::move(it->second->requestMutable());
        kernel_.destroyTask(it->second.get());
        live_.erase(it);

        chipBusy_[req.chip] = false;
        finishOp(req, res);
        kickAdmit();
    }, "rtos op completion");
}

} // namespace babol::core
