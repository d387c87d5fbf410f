#include "scrub.hh"

#include <algorithm>

#include "obs/sim_context.hh"

namespace babol::reliability {

PatrolScrubber::PatrolScrubber(EventQueue &eq, const std::string &name,
                               ftl::PageFtl &ftl, ScrubConfig cfg)
    : SimObject(eq, name), ftl_(ftl), cfg_(cfg),
      metrics_(eq.context().metrics, name)
{
    obsTrack_ = obs::interner().intern(name);
    lblPatrol_ = obs::interner().intern("scrub.patrol");
    lblRefresh_ = obs::interner().intern("scrub.refresh");
    metrics_.value("patrol_reads", [this] { return patrolReads_; });
    metrics_.value("patrol_failures", [this] { return patrolFailures_; });
    metrics_.value("near_misses", [this] { return nearMisses_; });
    metrics_.value("disturb_trips", [this] { return disturbTrips_; });
    metrics_.value("refreshes", [this] { return refreshes_; });
    metrics_.value("yields", [this] { return yields_; });
    metrics_.value("forced_slots", [this] { return forcedSlots_; });
    metrics_.value("sweeps", [this] { return sweeps_; });
}

void
PatrolScrubber::start()
{
    if (running_)
        return;
    running_ = true;
    armTick();
}

void
PatrolScrubber::armTick()
{
    if (armed_ || !running_)
        return;
    armed_ = true;
    scheduleIn(cfg_.intervalUs * ticks::perUs, [this] {
        armed_ = false;
        tick();
    }, "scrub.tick");
}

/**
 * Move the cursor to the next live page (skipping dead chips and
 * unmapped pages). @return false when a full device pass found nothing
 * to patrol.
 */
bool
PatrolScrubber::advanceCursor()
{
    const std::uint32_t chips = ftl_.chipCount();
    const std::uint32_t blocks = ftl_.blocksPerChip();
    const std::uint32_t pages = ftl_.pagesPerBlock();
    const std::uint64_t total =
        static_cast<std::uint64_t>(chips) * blocks * pages;

    for (std::uint64_t step = 0; step < total; ++step) {
        if (++curPage_ >= pages) {
            curPage_ = 0;
            if (++curBlock_ >= blocks) {
                curBlock_ = 0;
                if (++curChip_ >= chips) {
                    curChip_ = 0;
                    ++sweeps_;
                }
            }
        }
        if (ftl_.chipDead(curChip_))
            continue;
        if (ftl_.pageLpnAt(curChip_, curBlock_, curPage_))
            return true;
    }
    return false;
}

void
PatrolScrubber::tick()
{
    if (!running_)
        return;

    // Yield to host traffic — but bounded, so a saturating workload
    // cannot park the patrol forever.
    if (ftl_.hostBusy() && consecYields_ < cfg_.maxYields) {
        ++consecYields_;
        ++yields_;
        armTick();
        return;
    }
    if (consecYields_ >= cfg_.maxYields)
        ++forcedSlots_;
    consecYields_ = 0;

    if (!advanceCursor()) {
        armTick(); // nothing live yet; idle until next interval
        return;
    }

    const std::uint32_t c = curChip_;
    const std::uint32_t b = curBlock_;
    const std::uint32_t p = curPage_;
    const std::uint64_t lpn = *ftl_.pageLpnAt(c, b, p);

    ++patrolReads_;
    const obs::SpanId span = eq_.context().trace.beginSpan(
        obsTrack_, lblPatrol_, curTick(), eq_.context().current, lpn);

    ftl_.readPhysical(
        c, b, p, ftl_.reliabilityScratchAddr(cfg_.scratchSlot),
        [this, c, b, lpn, span](const core::OpResult &r) {
            eq_.context().trace.endSpan(span, curTick());

            bool refresh = false;
            if (!r.ok) {
                // Uncorrectable on patrol: refresh immediately — the
                // FTL's refresh path escalates through RAIN rebuild if
                // a plain re-read cannot recover it either.
                ++patrolFailures_;
                refresh = true;
            } else {
                const std::uint32_t worst =
                    std::min(r.maxCodewordBits, cfg_.eccCorrectBits);
                if (cfg_.eccCorrectBits - worst <= cfg_.refreshMarginBits) {
                    ++nearMisses_; // ECC near miss: margin too thin
                    refresh = true;
                }
            }
            if (!refresh &&
                ftl_.blockHostReads(c, b) >= cfg_.disturbThreshold) {
                ++disturbTrips_;
                refresh = true;
            }
            if (!refresh) {
                armTick();
                return;
            }
            ++refreshes_;
            const obs::SpanId rs = eq_.context().trace.beginSpan(
                obsTrack_, lblRefresh_, curTick(), eq_.context().current,
                lpn);
            // Steer the rewrite to the coldest other chip: scrub
            // traffic is what balances wear ACROSS chips (per-chip WL
            // only balances within one).
            ftl_.refreshLpn(lpn, [this, rs](bool) {
                eq_.context().trace.endSpan(rs, curTick());
                armTick();
            }, ftl_.coldestChip(1u << c));
        });
}

} // namespace babol::reliability
