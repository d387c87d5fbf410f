#include "rtos_controller.hh"

#include <algorithm>

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
      doneResult_(sys.chipCount())
{
    const std::size_t op_bytes =
        std::max({sizeof(RtosReadOp), sizeof(RtosProgramOp),
                  sizeof(RtosEraseOp), sizeof(RtosOobReadOp)});
    live_.reserve(sys.chipCount());
    for (std::uint32_t c = 0; c < sys.chipCount(); ++c)
        live_.emplace_back(op_bytes);
    governMeter(cpu_.powerMeter());
}

void
RtosController::submitNow(FlashRequest req)
{
    acceptRequest(req);
    babol_assert(req.chip < sys_.chipCount(), "chip %u out of range",
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
        auto req = tasks_->admitNext(chipBusy_);
        if (req) {
            startRequest(std::move(*req));
            kickAdmit();
        }
    }, "rtos task admit");
}

void
RtosController::startRequest(FlashRequest req)
{
    chipBusy_ |= ChipMask{1} << req.chip;
    noteOpStart(req);
    std::uint64_t id = nextId_++;

    InPlaceSlot<RtosOpBase> &slot = live_[req.chip];
    babol_assert(!slot, "chip %u already runs an op", req.chip);
    switch (req.kind) {
      case FlashOpKind::Read:
        slot.emplace<RtosReadOp>(*this, id, std::move(req), false);
        break;
      case FlashOpKind::PslcRead:
        slot.emplace<RtosReadOp>(*this, id, std::move(req), true);
        break;
      case FlashOpKind::Program:
        slot.emplace<RtosProgramOp>(*this, id, std::move(req), false);
        break;
      case FlashOpKind::PslcProgram:
        slot.emplace<RtosProgramOp>(*this, id, std::move(req), true);
        break;
      case FlashOpKind::Erase:
        slot.emplace<RtosEraseOp>(*this, id, std::move(req), false);
        break;
      case FlashOpKind::SlcErase:
        slot.emplace<RtosEraseOp>(*this, id, std::move(req), true);
        break;
      case FlashOpKind::OobRead:
        slot.emplace<RtosOobReadOp>(*this, id, std::move(req));
        break;
    }
    babol_assert(bool(slot), "unknown flash op kind");

    ++liveCount_;
    kernel_.createTask(slot.get());
    kernel_.send(slot.get(), rtos_msg::kStart);
}

void
RtosController::completeRequest(std::uint32_t chip, OpResult res)
{
    // Called from inside the op's onMessage; defer teardown so the task
    // object is never deleted under its own feet.
    doneResult_[chip] = res;
    cpu_.execute(rt_.costs().completionIsr, [this, chip] {
        InPlaceSlot<RtosOpBase> &slot = live_[chip];
        babol_assert(bool(slot), "completion for chip %u with no op", chip);
        FlashRequest req = std::move(slot->requestMutable());
        kernel_.destroyTask(slot.get());
        slot.reset();
        --liveCount_;

        chipBusy_ &= ~(ChipMask{1} << req.chip);
        finishOp(req, doneResult_[chip]);
        kickAdmit();
    }, "rtos op completion");
}

} // namespace babol::core
