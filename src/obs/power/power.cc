#include "power.hh"

#include <algorithm>
#include <ostream>

#include "obs/audit/auditor.hh"
#include "obs/sim_context.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace babol::obs::power {

// ---------------------------------------------------------------------
// PowerModel

PowerModel &
PowerModel::instance()
{
    return SimContext::processDefault().power;
}

void
PowerModel::registerMeter(Meter *m)
{
    meters_.push_back(m);
}

void
PowerModel::unregisterMeter(Meter *m)
{
    meters_.erase(std::remove(meters_.begin(), meters_.end(), m),
                  meters_.end());
}

void
PowerModel::retire(const Meter &m)
{
    retiredFj_ += m.activeFj();
}

void
PowerModel::registerGovernor(PowerGovernor *g)
{
    governors_.push_back(g);
}

void
PowerModel::unregisterGovernor(PowerGovernor *g)
{
    governors_.erase(std::remove(governors_.begin(), governors_.end(), g),
                     governors_.end());
}

void
PowerModel::retireGovernor(const PowerGovernor &g)
{
    retiredWindows_ += g.windows().size();
    retiredThrottledTicks_ += g.throttledTicks();
}

std::uint64_t
PowerModel::liveActiveFj() const
{
    std::uint64_t sum = 0;
    for (const Meter *m : meters_)
        sum += m->activeFj();
    return sum;
}

std::uint64_t
PowerModel::liveIdleFj() const
{
    std::uint64_t sum = 0;
    for (const Meter *m : meters_)
        sum += m->idleFj();
    return sum;
}

std::uint64_t
PowerModel::grandTotalFjAt(Tick wall) const
{
    std::uint64_t idle = 0;
    for (const Meter *m : meters_)
        idle += m->idleFjAt(wall);
    return railTotalFj() + idle;
}

std::uint64_t
PowerModel::throttleWindowsTotal() const
{
    std::uint64_t n = retiredWindows_;
    for (const PowerGovernor *g : governors_)
        n += g->windows().size();
    return n;
}

Tick
PowerModel::throttledTicksTotal() const
{
    Tick t = retiredThrottledTicks_;
    for (const PowerGovernor *g : governors_)
        t += g->throttledTicks();
    return t;
}

bool
PowerModel::conservationOk(std::string *detail) const
{
    {
            for (const Meter *m : meters_) {
            std::uint64_t slots = 0;
            for (std::size_t i = 0; i < m->slotCount(); ++i)
                slots += m->slotFj(i);
            if (slots != m->activeFj()) {
                if (detail)
                    *detail = strfmt("rail %s: slot sum %llu fJ != rail "
                                     "total %llu fJ",
                                     m->rail().c_str(),
                                     static_cast<unsigned long long>(slots),
                                     static_cast<unsigned long long>(
                                         m->activeFj()));
                return false;
            }
        }
    }
    const std::uint64_t components = liveActiveFj() + retiredFj();
    if (components != railTotalFj()) {
        if (detail)
            *detail = strfmt("component sum %llu fJ != rail total %llu fJ",
                             static_cast<unsigned long long>(components),
                             static_cast<unsigned long long>(railTotalFj()));
        return false;
    }
    return true;
}

void
PowerModel::writeJson(std::ostream &os) const
{
    std::vector<const Meter *> meters;
    std::vector<const PowerGovernor *> governors;
    {
            meters.assign(meters_.begin(), meters_.end());
        governors.assign(governors_.begin(), governors_.end());
    }
    std::sort(meters.begin(), meters.end(),
              [](const Meter *a, const Meter *b) {
                  return a->rail() < b->rail();
              });
    std::sort(governors.begin(), governors.end(),
              [](const PowerGovernor *a, const PowerGovernor *b) {
                  return a->name() < b->name();
              });

    os << "{\n  \"enabled\": " << (enabled_ ? "true" : "false") << ",\n";
    os << "  \"rail_total_fj\": " << railTotalFj() << ",\n";
    os << "  \"retired_fj\": " << retiredFj() << ",\n";
    os << "  \"grand_total_fj\": " << grandTotalFj() << ",\n";
    os << "  \"rails\": {";
    bool first = true;
    for (const Meter *m : meters) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    \"" << m->rail() << "\": {\"active_fj\": "
           << m->activeFj() << ", \"idle_fj\": " << m->idleFj();
        for (std::size_t i = 0; i < m->slotCount(); ++i)
            os << ", \"" << m->slotName(i) << "_fj\": " << m->slotFj(i);
        os << "}";
    }
    os << "\n  },\n  \"governors\": {";
    first = true;
    for (const PowerGovernor *g : governors) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    \"" << g->name() << "\": {\"cap_mw\": " << g->capMw()
           << ", \"throttle_windows\": " << g->windows().size()
           << ", \"throttled_us\": " << ticks::toUs(g->throttledTicks())
           << "}";
    }
    os << "\n  }\n}\n";
}

void
PowerModel::audit(audit::Auditor &aud) const
{
    std::string detail;
    if (enabled() && !conservationOk(&detail))
        aud.report(audit::Check::Power, "power.conservation", "power", 0,
                   detail);
}

// ---------------------------------------------------------------------
// Meter

Meter::Meter(EventQueue &eq, std::string rail,
             std::initializer_list<const char *> slots,
             std::uint32_t idle_mw)
    : model_(eq.context().power), eq_(eq), rail_(std::move(rail)),
      idleMw_(idle_mw), enabled_(model_.enabled())
{
    babol_assert(slots.size() <= kMaxSlots, "meter %s: too many slots",
                 rail_.c_str());
    for (const char *s : slots)
        slotNames_[slotCount_++] = s;
    if (!enabled_)
        return;
    ctrTrack_ = interner().intern(rail_ + ".mW");
    metrics_.emplace(eq.context().metrics, rail_ + ".power");
    for (std::size_t i = 0; i < slotCount_; ++i)
        metrics_->value(std::string(slotNames_[i]) + "_fj",
                        [this, i] { return slotFj(i); });
    metrics_->value("active_fj", [this] { return activeFj(); });
    metrics_->value("idle_fj", [this] { return idleFj(); });
    metrics_->value("total_fj", [this] { return grandFj(); });
    metrics_->value("avg_mw", [this] {
        const Tick now = eq_.now();
        return now ? grandFj() / now : 0;
    });
    model_.registerMeter(this);
}

Meter::~Meter()
{
    if (!enabled_)
        return;
    model_.retire(*this);
    model_.unregisterMeter(this);
}

void
Meter::noteActive(Tick t0, Tick t1, std::uint64_t fj)
{
    if (!enabled_ || t1 <= t0)
        return;
    const Tick dur = t1 - t0;
    activeTicks_ += dur;
    TraceRecorder &tr = eq_.context().trace;
    if (tr.enabled()) {
        // Counter-rail samples: power rises to idle + the window's mean
        // at t0 and falls back to the standby floor at t1.
        tr.counter(ctrTrack_, ctrTrack_, t0, idleMw_ + fj / dur);
        tr.counter(ctrTrack_, ctrTrack_, t1, idleMw_);
    }
    if (gov_)
        gov_->addEnergy(t1, fj);
}

std::uint64_t
Meter::idleFj() const
{
    return idleFjAt(eq_.now());
}

std::uint64_t
Meter::idleFjAt(Tick wall) const
{
    if (!enabled_)
        return 0;
    const std::uint64_t active = activeTicks();
    if (active >= wall)
        return 0;
    return (wall - active) * idleMw_;
}

// ---------------------------------------------------------------------
// PowerGovernor

PowerGovernor::PowerGovernor(EventQueue &eq, std::string name)
    : eq_(eq), name_(std::move(name)), model_(eq.context().power),
      cfg_(model_.governorConfig())
{
    babol_assert(cfg_.capMw > 0, "governor %s: no power cap configured",
                 name_.c_str());
    bucketWidth_ = std::max<Tick>(cfg_.window / kBuckets, 1);
    obsTrack_ = interner().intern(name_);
    throttleLabel_ = interner().intern("power.throttle");
    model_.registerGovernor(this);
}

PowerGovernor::~PowerGovernor()
{
    releaseEv_.cancel();
    model_.retireGovernor(*this);
    model_.unregisterGovernor(this);
}

void
PowerGovernor::addEnergy(Tick at, std::uint64_t fj)
{
    const std::uint64_t idx = at / bucketWidth_;
    Bucket &b = buckets_[idx % kBuckets];
    if (b.index != idx) {
        b.index = idx;
        b.fj = 0;
    }
    b.fj += fj;

    if (throttled(at))
        return;

    // Energy observed over the trailing window vs. the budget
    // (cap[mW] × window[ticks] = budget[fJ] — exact).
    std::uint64_t windowFj = 0;
    for (const Bucket &w : buckets_)
        if (w.index + kBuckets > idx)
            windowFj += w.fj;
    if (windowFj <= cfg_.capMw * static_cast<std::uint64_t>(cfg_.window))
        return;

    const Tick until = at + cfg_.idlePeriod;
    throttleUntil_ = until;
    throttledTicks_ += cfg_.idlePeriod;
    windows_.emplace_back(at, until);
    eq_.context().trace.complete(obsTrack_, throttleLabel_, at, until,
                                 kNoSpan, windows_.size());
    // Absolute: @p at is the *end* of the charged window, which can sit
    // ahead of now() (bus bursts and CPU quanta charge on dispatch), and
    // the release must not fire while the window is still open.
    releaseEv_.cancel();
    releaseEv_ = eq_.schedule(until, [this] {
        if (onRelease_)
            onRelease_();
    }, "power.throttle.release");
}

} // namespace babol::obs::power
