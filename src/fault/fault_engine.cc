#include "fault_engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace babol::fault {

FaultEngine::FaultEngine(obs::ExecContext &exec)
    : exec_(exec), faultMetrics_(exec.metrics, "fault"),
      retryMetrics_(exec.metrics, "retry"),
      remapMetrics_(exec.metrics, "remap")
{
    faultMetrics_.value("injected", [this] { return injected_; });
    for (FaultKind k : {FaultKind::BitBurst, FaultKind::ProgFail,
                        FaultKind::EraseFail, FaultKind::StuckBusy,
                        FaultKind::Drift, FaultKind::PowerCut,
                        FaultKind::DieFail, FaultKind::BlockFail}) {
        faultMetrics_.value(toString(k), [this, k] {
            return injectedKind_[static_cast<std::size_t>(k)];
        });
    }
    faultMetrics_.value("suppressed", [this] { return suppressed_; });
    faultMetrics_.value("timeouts", [this] { return timeouts_; });
    retryMetrics_.value("steps", [this] { return retrySteps_; });
    remapMetrics_.value("count", [this] { return remaps_; });

    obsTrack_ = obs::interner().intern("fault");
    lblInject_ = obs::interner().intern("fault.injected");
    lblRecover_ = obs::interner().intern("fault.recovery");
}

void
FaultEngine::arm(FaultPlan plan)
{
    plan_ = std::move(plan);
    state_.assign(plan_.faults.size(), SpecState{});
    rng_ = Rng(plan_.seed);
    suppressUntil_.clear();
    deadRegions_.clear();
    injected_ = 0;
    std::fill(std::begin(injectedKind_), std::end(injectedKind_), 0);
    retrySteps_ = 0;
    remaps_ = 0;
    timeouts_ = 0;
    suppressed_ = 0;
    log_.clear();
    armed_ = true;
}

void
FaultEngine::disarm()
{
    armed_ = false;
    plan_ = FaultPlan{};
    state_.clear();
    suppressUntil_.clear();
    deadRegions_.clear();
}

bool
FaultEngine::matches(const FaultSpec &spec, std::string_view lun,
                     std::uint32_t block, std::uint32_t page) const
{
    if (!spec.where.empty() && lun.find(spec.where) == std::string_view::npos)
        return false;
    if (block < spec.blockLo || block > spec.blockHi)
        return false;
    return page >= spec.pageLo && page <= spec.pageHi;
}

bool
FaultEngine::strike(const FaultSpec &spec, SpecState &st)
{
    if (st.fired >= spec.count)
        return false;
    ++st.seen;
    if (st.seen < spec.nth)
        return false;
    ++st.fired;
    return true;
}

void
FaultEngine::append(Tick now, const std::string &line)
{
    log_.push_back(strfmt("@%llu %s",
                          static_cast<unsigned long long>(now),
                          line.c_str()));
}

void
FaultEngine::recordInjection(const FaultSpec &spec, std::string_view lun,
                             Tick now, const std::string &detail)
{
    ++injected_;
    ++injectedKind_[static_cast<std::size_t>(spec.kind)];

    // Open the suppression window: violations the fault provokes on
    // this LUN within the window are expected, not conformance bugs.
    Tick window = spec.suppressTicks;
    if (spec.kind == FaultKind::StuckBusy)
        window = std::max(window, spec.extraBusy);
    if (window > 0) {
        Tick &until = suppressUntil_[std::string(lun)];
        until = std::max(until, now + window);
    }

    append(now, strfmt("inject %s %.*s %s", toString(spec.kind),
                       static_cast<int>(lun.size()), lun.data(),
                       detail.c_str()));
    exec_.trace.instant(obsTrack_, lblInject_, now, exec_.current,
                        static_cast<std::uint64_t>(spec.kind));
}

std::uint32_t
FaultEngine::onRead(std::string_view lun, std::uint32_t block,
                    std::uint32_t page, std::uint32_t retry_level,
                    Tick now)
{
    if (!armed())
        return 0;
    std::uint32_t flips = 0;
    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        const FaultSpec &spec = plan_.faults[i];
        SpecState &st = state_[i];
        if (!matches(spec, lun, block, page))
            continue;
        switch (spec.kind) {
          case FaultKind::BitBurst:
            if (strike(spec, st)) {
                flips += spec.bits;
                recordInjection(spec, lun, now,
                                strfmt("b%u p%u bits=%u", block, page,
                                       spec.bits));
            }
            break;
          case FaultKind::DieFail:
          case FaultKind::BlockFail:
            if (strike(spec, st)) {
                deadRegions_.push_back(
                    {spec.where,
                     spec.kind == FaultKind::DieFail ? 0 : spec.blockLo,
                     spec.kind == FaultKind::DieFail ? ~0u : spec.blockHi});
                recordInjection(spec, lun, now,
                                strfmt("b%u p%u", block, page));
            }
            break;
          case FaultKind::Drift:
            if (!st.driftActive && strike(spec, st)) {
                st.driftActive = true;
                recordInjection(spec, lun, now,
                                strfmt("b%u p%u level=%u", block, page,
                                       spec.level));
            }
            if (st.driftActive) {
                if (retry_level >= spec.level) {
                    // The controller stepped the read window far
                    // enough: the drift clears and this read decodes.
                    st.driftActive = false;
                    append(now, strfmt("recover drift %.*s rl=%u",
                                       static_cast<int>(lun.size()),
                                       lun.data(), retry_level));
                    exec_.trace.instant(obsTrack_, lblRecover_, now,
                                        exec_.current, retry_level);
                } else {
                    flips += spec.bits;
                }
            }
            break;
          default:
            break;
        }
    }
    return flips;
}

bool
FaultEngine::onProgram(std::string_view lun, std::uint32_t block,
                       std::uint32_t page, Tick now)
{
    if (!armed())
        return false;
    bool fail = false;
    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        const FaultSpec &spec = plan_.faults[i];
        if (!matches(spec, lun, block, page))
            continue;
        if (spec.kind == FaultKind::ProgFail) {
            if (strike(spec, state_[i])) {
                recordInjection(spec, lun, now,
                                strfmt("b%u p%u", block, page));
                fail = true;
            }
        } else if (spec.kind == FaultKind::DieFail ||
                   spec.kind == FaultKind::BlockFail) {
            if (strike(spec, state_[i])) {
                deadRegions_.push_back(
                    {spec.where,
                     spec.kind == FaultKind::DieFail ? 0 : spec.blockLo,
                     spec.kind == FaultKind::DieFail ? ~0u
                                                     : spec.blockHi});
                recordInjection(spec, lun, now,
                                strfmt("b%u p%u", block, page));
            }
        }
    }
    return fail || deadAt(lun, block);
}

bool
FaultEngine::onErase(std::string_view lun, std::uint32_t block, Tick now)
{
    if (!armed())
        return false;
    bool fail = false;
    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        const FaultSpec &spec = plan_.faults[i];
        if (!matches(spec, lun, block, 0))
            continue;
        if (spec.kind == FaultKind::EraseFail) {
            if (strike(spec, state_[i])) {
                recordInjection(spec, lun, now, strfmt("b%u", block));
                fail = true;
            }
        } else if (spec.kind == FaultKind::DieFail ||
                   spec.kind == FaultKind::BlockFail) {
            if (strike(spec, state_[i])) {
                deadRegions_.push_back(
                    {spec.where,
                     spec.kind == FaultKind::DieFail ? 0 : spec.blockLo,
                     spec.kind == FaultKind::DieFail ? ~0u
                                                     : spec.blockHi});
                recordInjection(spec, lun, now, strfmt("b%u", block));
            }
        }
    }
    return fail || deadAt(lun, block);
}

bool
FaultEngine::deadAt(std::string_view lun, std::uint32_t block) const
{
    for (const DeadRegion &r : deadRegions_) {
        if (!r.where.empty() &&
            lun.find(r.where) == std::string_view::npos) {
            continue;
        }
        if (block >= r.blockLo && block <= r.blockHi)
            return true;
    }
    return false;
}

bool
FaultEngine::dieDead(std::string_view lun) const
{
    if (!armed())
        return false;
    for (const DeadRegion &r : deadRegions_) {
        if (!r.where.empty() &&
            lun.find(r.where) == std::string_view::npos) {
            continue;
        }
        if (r.blockLo == 0 && r.blockHi == ~0u)
            return true;
    }
    return false;
}

void
FaultEngine::failDie(std::string_view where, Tick now)
{
    babol_assert(armed(), "failDie needs an armed engine (arm a plan, "
                          "even an empty one, first)");
    deadRegions_.push_back({std::string(where), 0, ~0u});
    ++injected_;
    ++injectedKind_[static_cast<std::size_t>(FaultKind::DieFail)];
    append(now, strfmt("inject diefail %.*s",
                       static_cast<int>(where.size()), where.data()));
    exec_.trace.instant(obsTrack_, lblInject_, now, exec_.current,
                        static_cast<std::uint64_t>(FaultKind::DieFail));
}

void
FaultEngine::failBlock(std::string_view where, std::uint32_t block_lo,
                       std::uint32_t block_hi, Tick now)
{
    babol_assert(armed(), "failBlock needs an armed engine");
    deadRegions_.push_back({std::string(where), block_lo, block_hi});
    ++injected_;
    ++injectedKind_[static_cast<std::size_t>(FaultKind::BlockFail)];
    append(now, strfmt("inject blockfail %.*s b%u-%u",
                       static_cast<int>(where.size()), where.data(),
                       block_lo, block_hi));
    exec_.trace.instant(obsTrack_, lblInject_, now, exec_.current,
                        static_cast<std::uint64_t>(FaultKind::BlockFail));
}

Tick
FaultEngine::onArrayOp(std::string_view lun, OpClass op, Tick duration,
                       Tick now)
{
    if (!armed() || op == OpClass::Other)
        return 0;
    Tick extra = 0;
    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        const FaultSpec &spec = plan_.faults[i];
        if (spec.kind != FaultKind::StuckBusy)
            continue;
        if (!spec.where.empty() &&
            lun.find(spec.where) == std::string_view::npos) {
            continue;
        }
        if (strike(spec, state_[i])) {
            extra += spec.extraBusy;
            recordInjection(spec, lun, now,
                            strfmt("op=%d +%lluus",
                                   static_cast<int>(op),
                                   static_cast<unsigned long long>(
                                       spec.extraBusy / ticks::perUs)));
        }
    }
    (void)duration;
    return extra;
}

bool
FaultEngine::suppresses(std::string_view lun, Tick now) const
{
    if (!armed())
        return false;
    auto it = suppressUntil_.find(std::string(lun));
    if (it == suppressUntil_.end() || now > it->second)
        return false;
    ++suppressed_;
    return true;
}

void
FaultEngine::noteRetryStep(std::string_view who, std::uint32_t level,
                           Tick now)
{
    if (!armed())
        return;
    ++retrySteps_;
    append(now, strfmt("retry %.*s level=%u",
                       static_cast<int>(who.size()), who.data(), level));
    exec_.trace.instant(obsTrack_, lblRecover_, now, exec_.current,
                        level);
}

void
FaultEngine::noteRemap(std::string_view who, std::uint32_t chip,
                       std::uint32_t block, Tick now)
{
    if (!armed())
        return;
    ++remaps_;
    append(now, strfmt("remap %.*s chip=%u block=%u",
                       static_cast<int>(who.size()), who.data(), chip,
                       block));
    exec_.trace.instant(obsTrack_, lblRecover_, now, exec_.current,
                        block);
}

void
FaultEngine::noteTimeout(std::string_view who, Tick now)
{
    if (!armed())
        return;
    ++timeouts_;
    append(now, strfmt("timeout %.*s", static_cast<int>(who.size()),
                       who.data()));
}

void
FaultEngine::notePowerCut(std::string_view who, Tick now)
{
    if (!armed())
        return;
    ++injected_;
    ++injectedKind_[static_cast<std::size_t>(FaultKind::PowerCut)];
    append(now, strfmt("inject powercut %.*s",
                       static_cast<int>(who.size()), who.data()));
    exec_.trace.instant(obsTrack_, lblInject_, now, exec_.current,
                        static_cast<std::uint64_t>(FaultKind::PowerCut));
}

std::string
FaultEngine::summary() const
{
    return strfmt("faults injected=%llu (bitburst=%llu progfail=%llu "
                  "erasefail=%llu stuckbusy=%llu drift=%llu "
                  "powercut=%llu diefail=%llu blockfail=%llu) "
                  "retry.steps=%llu remap.count=%llu timeouts=%llu "
                  "suppressed=%llu",
                  static_cast<unsigned long long>(injected_),
                  static_cast<unsigned long long>(
                      injectedOf(FaultKind::BitBurst)),
                  static_cast<unsigned long long>(
                      injectedOf(FaultKind::ProgFail)),
                  static_cast<unsigned long long>(
                      injectedOf(FaultKind::EraseFail)),
                  static_cast<unsigned long long>(
                      injectedOf(FaultKind::StuckBusy)),
                  static_cast<unsigned long long>(
                      injectedOf(FaultKind::Drift)),
                  static_cast<unsigned long long>(
                      injectedOf(FaultKind::PowerCut)),
                  static_cast<unsigned long long>(
                      injectedOf(FaultKind::DieFail)),
                  static_cast<unsigned long long>(
                      injectedOf(FaultKind::BlockFail)),
                  static_cast<unsigned long long>(retrySteps_),
                  static_cast<unsigned long long>(remaps_),
                  static_cast<unsigned long long>(timeouts_),
                  static_cast<unsigned long long>(suppressed_));
}

} // namespace babol::fault
