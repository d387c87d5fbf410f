#include "hw_controller.hh"

#include "hw_ops.hh"

using namespace babol::time_literals;

namespace babol::core {

HwController::HwController(EventQueue &eq, const std::string &name,
                           ChannelSystem &sys, bool synchronous)
    : ChannelController(eq, name, sys),
      synchronous_(synchronous),
      arbitrationDeadTime_(synchronous ? 200_ns : 0),
      rbSyncDelay_(100_ns),
      labels_(sys.chipCount()),
      pending_(sys.chipCount()),
      doneResult_(sys.chipCount()),
      grants_(sys.chipCount())
{
    active_.reserve(sys.chipCount());
    for (std::uint32_t c = 0; c < sys.chipCount(); ++c)
        active_.emplace_back(hwOpFsmBytes());
}

HwController::~HwController() = default;

HwController::Labels::Labels(std::uint32_t chips)
    : readCa("HW.READ.ca c%u", chips),
      readXfer("HW.READ.xfer c%u", chips),
      readRetry("HW.READ.retry c%u", chips),
      oobReadCa("HW.OOB_READ.ca c%u", chips),
      oobReadXfer("HW.OOB_READ.xfer c%u", chips),
      program("HW.PROGRAM c%u", chips),
      programStatus("HW.PROGRAM.status c%u", chips),
      erase("HW.ERASE c%u", chips),
      eraseStatus("HW.ERASE.status c%u", chips)
{}

std::vector<std::uint8_t>
HwController::recycledPayload()
{
    if (sparePayloads_.empty())
        return {};
    std::vector<std::uint8_t> buf = std::move(sparePayloads_.back());
    sparePayloads_.pop_back();
    buf.clear();
    return buf;
}

void
HwController::submitNow(FlashRequest req)
{
    acceptRequest(req);
    babol_assert(req.chip < pending_.size(), "chip %u out of range",
                 req.chip);
    std::uint32_t chip = req.chip;
    pending_[chip].push_back(std::move(req));
    tryStart(chip);
}

void
HwController::tryStart(std::uint32_t chip)
{
    if (active_[chip] || pending_[chip].empty())
        return;
    FlashRequest req = std::move(pending_[chip].front());
    pending_[chip].pop_front();
    noteOpStart(req);
    makeHwOpFsm(*this, std::move(req), active_[chip]).start();
}

void
HwController::issueSegment(std::uint32_t chip, chan::Segment &&seg,
                           chan::SegmentDone done)
{
    babol_assert(chip < grants_.size(), "chip %u out of range", chip);
    // Classify: command/address/status segments are "short control" and
    // the arbiter lets them jump ahead of bulk transfers so a die's tR
    // starts as early as possible (the classic anti-convoy rule of
    // out-of-order flash controllers [43]).
    bool short_control = true;
    for (const chan::SegmentItem &item : seg.items) {
        if (item.inCount > 64 || item.dataBytes > 64)
            short_control = false;
    }
    // The hw flavours issue to the bus directly (no exec unit), so the
    // op span is stamped here.
    if (seg.ctx.span == obs::kNoSpan)
        seg.ctx.span = opCtx(chip);
    grants_[chip].push_back({std::move(seg), std::move(done),
                             short_control});
    pumpGrants();
}

void
HwController::pumpGrants()
{
    if (granting_ || sys_.bus().busy())
        return;
    bool any = false;
    for (const auto &queue : grants_)
        any = any || !queue.empty();
    if (!any)
        return;
    granting_ = true;
    grantNext();
}

void
HwController::grantNext()
{
    // Short-control segments first (round-robin), then bulk transfers
    // (round-robin).
    if (grantFrom(true))
        return;
    if (grantFrom(false))
        return;
    granting_ = false;
}

bool
HwController::grantFrom(bool control_only)
{
    const std::uint32_t chips = static_cast<std::uint32_t>(grants_.size());
    for (std::uint32_t step = 0; step < chips; ++step) {
        std::uint32_t chip = (grantCursor_ + 1 + step) % chips;
        if (grants_[chip].empty())
            continue;
        if (control_only && !grants_[chip].front().shortControl)
            continue;
        grantCursor_ = chip;
        GrantRequest grant = std::move(grants_[chip].front());
        grants_[chip].pop_front();

        grantDone_ = std::move(grant.done);
        sys_.bus().issue(std::move(grant.segment),
                         [this](std::span<std::uint8_t> capture) {
            chan::SegmentDone done = std::move(grantDone_);
            done(capture);
            // The synchronous design re-arbitrates only after it sees
            // the channel go idle; the asynchronous one already has the
            // next segment staged.
            granting_ = false;
            if (arbitrationDeadTime_ > 0) {
                eq_.scheduleIn(arbitrationDeadTime_,
                               [this] { pumpGrants(); }, "hw arb");
            } else {
                pumpGrants();
            }
        });
        // The bus handed back the previous segment's data-in buffer.
        if (grant.segment.payload.capacity() > 0)
            sparePayloads_.push_back(std::move(grant.segment.payload));
        return true;
    }
    return false;
}

void
HwController::fsmDone(std::uint32_t chip, OpResult result)
{
    babol_assert(bool(active_[chip]), "completion with no active op");
    // Defer teardown out of the FSM's own call stack. The FSM stays
    // alive until the deferred event runs, so the request is read there
    // instead of being copied into the closure.
    doneResult_[chip] = result;
    eq_.scheduleIn(0, [this, chip] {
        FlashRequest req = active_[chip]->takeRequest();
        active_[chip].reset();
        finishOp(req, doneResult_[chip]);
        tryStart(chip);
    }, "hw op done");
}

} // namespace babol::core
