/**
 * @file
 * Common interface of all channel-controller flavours: the software-
 * defined BABOL controllers (coroutine and RTOS environments) and the
 * two hardware baselines. The FTL sees only submit()/stats.
 */

#ifndef BABOL_CORE_CONTROLLER_HH
#define BABOL_CORE_CONTROLLER_HH

#include <deque>
#include <memory>

#include "channel_system.hh"
#include "flash_backend.hh"
#include "obs/sim_context.hh"
#include "op_request.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace babol::core {

/** Configuration shared by both software controller flavours. */
struct SoftControllerConfig
{
    std::uint32_t cpuMhz = 1000;
    std::string txnPolicy = "round-robin";
    std::string taskPolicy = "fifo";

    /** Read-retry budget applied to plain Read requests (0 = off). */
    std::uint32_t maxReadRetries = 0;
};

class ChannelController : public SimObject, public FlashBackend
{
  public:
    ChannelController(EventQueue &eq, const std::string &name,
                      ChannelSystem &sys)
        : SimObject(eq, name),
          sys_(sys),
          latencyUs_("op latency (us)"),
          obsTrack_(obs::interner().intern(name)),
          chipSpan_(sys.chipCount(), obs::kNoSpan),
          metrics_(eq.context().metrics, name)
    {
        for (int k = 0; k < kOpKinds; ++k) {
            opLabel_[k] = obs::interner().intern(
                strfmt("op.%s", toString(static_cast<FlashOpKind>(k))));
        }
        metrics_.value("ops_completed", [this] { return opsCompleted_; });
        metrics_.value("ops_failed", [this] { return opsFailed_; });
        metrics_.value("payload_bytes_read",
                       [this] { return payloadRead_; });
        metrics_.value("payload_bytes_written",
                       [this] { return payloadWritten_; });
        metrics_.distribution("latency_us", &latencyUs_);

        // Segments whose transactions carry no explicit span are
        // attributed to the op running on their chip (every flavour
        // runs at most one op per chip at a time).
        sys_.exec().setCtxResolver(
            [this](std::uint32_t chip) { return opCtx(chip); });

        // With a power cap configured, this channel gets a governor fed
        // by its bus and LUN rails (the channel-local meters, so
        // channels stay independent); submit() holds requests back
        // while it throttles.
        auto &pm = eq.context().power;
        if (pm.enabled() && pm.governorConfig().capMw > 0) {
            gov_ = std::make_unique<obs::power::PowerGovernor>(
                eq, name + ".gov");
            gov_->setOnRelease([this] { drainDeferred(); });
            governMeter(sys_.bus().powerMeter());
            for (std::uint32_t c = 0; c < sys_.bus().packageCount(); ++c) {
                nand::Package &pkg = sys_.bus().package(c);
                for (std::uint32_t l = 0; l < pkg.lunCount(); ++l)
                    governMeter(pkg.lun(l).powerMeter());
            }
        }
    }

    ~ChannelController() override
    {
        // The meters belong to the channel system and outlive this
        // controller (and its governor) — detach before gov_ dies.
        for (obs::power::Meter *m : governed_)
            m->setGovernor(nullptr);
        sys_.exec().setCtxResolver(nullptr);
    }

    /** "coroutine", "rtos", "hw-sync", or "hw-async". */
    virtual const char *flavorName() const = 0;

    /**
     * Accept one flash operation request from the FTL. This is the
     * power-budget gate: while the channel's governor holds a forced
     * idle window open, requests queue here and drain on release.
     * The submit tick is stamped on arrival, so throttle delay shows
     * up in op latency like any other queueing.
     */
    void
    submit(FlashRequest req) final
    {
        if (req.submitTick == 0)
            req.submitTick = curTick();
        if (gov_ && gov_->throttled(curTick())) {
            deferred_.push_back(std::move(req));
            return;
        }
        submitNow(std::move(req));
    }

    /** This channel's power governor (nullptr when no cap is set). */
    obs::power::PowerGovernor *governor() { return gov_.get(); }

    /** Requests currently held back by the governor. */
    std::size_t deferredCount() const { return deferred_.size(); }

    ChannelSystem &system() { return sys_; }

    // --- FlashBackend: one channel is the simplest back-end ---
    std::uint32_t backendChipCount() const override
    {
        return sys_.chipCount();
    }
    const nand::Geometry &backendGeometry() const override
    {
        return sys_.config().package.geometry;
    }
    dram::DramBuffer &backendDram() override { return sys_.dram(); }
    fault::FaultEngine &backendFaults() override
    {
        return eq_.context().faults;
    }
    std::string backendChipName(std::uint32_t chip) const override
    {
        return strfmt("%s.pkg%u", sys_.name().c_str(), chip);
    }

    // --- Stats ---
    std::uint64_t opsCompleted() const { return opsCompleted_; }
    std::uint64_t opsFailed() const { return opsFailed_; }
    std::uint64_t payloadBytesRead() const { return payloadRead_; }
    std::uint64_t payloadBytesWritten() const { return payloadWritten_; }
    const Distribution &latencyUs() const { return latencyUs_; }
    void
    resetStats()
    {
        opsCompleted_ = 0;
        opsFailed_ = 0;
        payloadRead_ = 0;
        payloadWritten_ = 0;
        latencyUs_.reset();
    }

  protected:
    /**
     * The flavour's actual admission path; called by submit() once the
     * request clears the power gate. Flavours implement this instead of
     * overriding submit().
     */
    virtual void submitNow(FlashRequest req) = 0;

    /**
     * Open the op span; every flavour calls this first thing in
     * submitNow(). The submit tick was already stamped at the gate
     * (kept if set, so throttle delay counts toward latency); the
     * submitter's context (if any) becomes the op span's parent.
     */
    void
    acceptRequest(FlashRequest &req)
    {
        if (req.submitTick == 0)
            req.submitTick = curTick();
        auto &aud = eq_.context().audit;
        if (aud.armed() && gov_ && gov_->throttled(curTick())) {
            // submit() defers while throttled, so reaching here mid-
            // window means some path bypassed the gate.
            aud.report(obs::audit::Check::Power,
                       "power.throttle-admission", name(), curTick(),
                       strfmt("request admitted during a forced idle "
                              "window (chip %u, %s)",
                              req.chip, toString(req.kind)));
        }
        auto &tr = eq_.context().trace;
        if (tr.enabled()) {
            req.ctx.span = tr.beginSpan(
                obsTrack_, opLabel_[static_cast<int>(req.kind)],
                curTick(), req.ctx.span, req.chip);
        }
    }

    /** Route a meter's charges into this channel's governor. */
    void
    governMeter(obs::power::Meter &m)
    {
        if (!gov_)
            return;
        m.setGovernor(gov_.get());
        governed_.push_back(&m);
    }

    /** Governor release: re-admit held requests in arrival order. */
    void
    drainDeferred()
    {
        while (!deferred_.empty() &&
               !(gov_ && gov_->throttled(curTick()))) {
            FlashRequest req = std::move(deferred_.front());
            deferred_.pop_front();
            submitNow(std::move(req));
        }
    }

    /** Bind the op span to its chip while the op runs, so transactions
     *  and segments issued on that chip inherit it. */
    void noteOpStart(const FlashRequest &req)
    {
        if (req.chip < chipSpan_.size())
            chipSpan_[req.chip] = req.ctx.span;
    }

    /** Span of the op currently running on @p chip (kNoSpan if idle). */
    obs::SpanId
    opCtx(std::uint32_t chip) const
    {
        return chip < chipSpan_.size() ? chipSpan_[chip] : obs::kNoSpan;
    }

    /** Record stats and deliver the result to the requester. */
    void
    finishOp(const FlashRequest &req, OpResult result)
    {
        result.doneTick = curTick();
        eq_.context().trace.endSpan(req.ctx.span, result.doneTick);
        if (req.chip < chipSpan_.size() &&
            chipSpan_[req.chip] == req.ctx.span) {
            chipSpan_[req.chip] = obs::kNoSpan;
        }
        ++opsCompleted_;
        if (!result.ok)
            ++opsFailed_;
        if (result.ok) {
            switch (req.kind) {
              case FlashOpKind::Read:
              case FlashOpKind::PslcRead:
                payloadRead_ += req.dataBytes;
                break;
              case FlashOpKind::Program:
              case FlashOpKind::PslcProgram:
                payloadWritten_ += req.dataBytes;
                break;
              default:
                break;
            }
        }
        latencyUs_.sample(ticks::toUs(result.latency()));
        if (req.onComplete)
            req.onComplete(result);
    }

    ChannelSystem &sys_;
    std::uint64_t opsCompleted_ = 0;
    std::uint64_t opsFailed_ = 0;
    std::uint64_t payloadRead_ = 0;
    std::uint64_t payloadWritten_ = 0;
    Distribution latencyUs_;

    static constexpr int kOpKinds = 7;
    std::uint32_t obsTrack_;
    std::uint32_t opLabel_[kOpKinds] = {};
    std::vector<obs::SpanId> chipSpan_;

    std::unique_ptr<obs::power::PowerGovernor> gov_;
    std::vector<obs::power::Meter *> governed_;
    std::deque<FlashRequest> deferred_;

    /** Last member: deregisters before the stats it references die. */
    obs::MetricsGroup metrics_;
};

} // namespace babol::core

#endif // BABOL_CORE_CONTROLLER_HH
