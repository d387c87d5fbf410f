#include "fio.hh"

#include "obs/sim_context.hh"

namespace babol::host {

FioEngine::FioEngine(EventQueue &eq, const std::string &name,
                     ftl::PageFtl &ftl, FioConfig cfg)
    : SimObject(eq, name),
      ftl_(ftl),
      cfg_(cfg),
      rng_(cfg.seed),
      latencyUs_("io latency (us)"),
      metrics_(eq.context().metrics, name)
{
    obsTrack_ = obs::interner().intern(name);
    lblRead_ = obs::interner().intern("io.read");
    lblWrite_ = obs::interner().intern("io.write");
    metrics_.value("completed", [this] { return completed_; });
    metrics_.value("errors", [this] { return errors_; });
    metrics_.distribution("latency_us", &latencyUs_);

    if (cfg_.extentPages == 0)
        cfg_.extentPages = ftl_.logicalPages();
    babol_assert(cfg_.extentPages <= ftl_.logicalPages(),
                 "extent larger than the FTL's logical space");
    babol_assert(cfg_.queueDepth >= 1, "queue depth must be >= 1");
}

std::uint64_t
FioEngine::nextLpn()
{
    if (cfg_.pattern == FioConfig::Pattern::Sequential) {
        std::uint64_t lpn = seqCursor_;
        seqCursor_ = (seqCursor_ + 1) % cfg_.extentPages;
        return lpn;
    }
    return rng_.uniform(0, cfg_.extentPages - 1);
}

void
FioEngine::start(std::function<void()> on_done)
{
    babol_assert(onDone_ == nullptr, "engine already running");
    onDone_ = std::move(on_done);
    issued_ = 0;
    completed_ = 0;
    errors_ = 0;
    inFlight_ = 0;
    seqCursor_ = 0;
    latencyUs_.reset();
    startTick_ = curTick();

    std::uint32_t initial = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.queueDepth, cfg_.totalIos));
    for (std::uint32_t slot = 0; slot < initial; ++slot)
        issueNext(slot);
}

void
FioEngine::issueNext(std::uint32_t slot)
{
    if (issued_ >= cfg_.totalIos)
        return;
    ++issued_;
    ++inFlight_;

    std::uint64_t lpn = nextLpn();
    std::uint64_t buf = cfg_.dramBase +
                        static_cast<std::uint64_t>(slot) * ftl_.pageBytes();
    Tick begin = curTick();

    // Root span of this IO (fio drives the FTL directly, so it plays
    // the host's role in the span tree).
    const obs::SpanId span = eq_.context().trace.beginSpan(
        obsTrack_, cfg_.write ? lblWrite_ : lblRead_, begin,
        eq_.context().current, lpn);

    auto complete = [this, slot, begin, span](bool ok) {
        eq_.context().trace.endSpan(span, curTick());
        --inFlight_;
        ++completed_;
        if (!ok)
            ++errors_;
        latencyUs_.sample(ticks::toUs(curTick() - begin));
        if (issued_ < cfg_.totalIos) {
            issueNext(slot);
        } else if (inFlight_ == 0) {
            endTick_ = curTick();
            auto done = std::move(onDone_);
            onDone_ = nullptr;
            if (done)
                done();
        }
    };

    obs::Hub::ScopedCtx ctx(eq_.context(), span);
    if (cfg_.write)
        ftl_.writePage(lpn, buf, complete);
    else
        ftl_.readPage(lpn, buf, complete);
}

void
FioEngine::fill(std::uint64_t pages, std::function<void()> on_done)
{
    FioConfig saved = cfg_;
    cfg_.pattern = FioConfig::Pattern::Sequential;
    cfg_.write = true;
    cfg_.totalIos = pages;
    cfg_.extentPages = pages;
    start([this, saved, on_done = std::move(on_done)] {
        cfg_ = saved;
        on_done();
    });
}

double
FioEngine::bandwidthMBps() const
{
    return ::babol::bandwidthMBps(completed_ * ftl_.pageBytes(),
                                  endTick_ - startTick_);
}

double
FioEngine::iops() const
{
    Tick elapsed_ticks = endTick_ - startTick_;
    if (elapsed_ticks == 0)
        return 0.0;
    return static_cast<double>(completed_) / ticks::toSec(elapsed_ticks);
}

} // namespace babol::host
