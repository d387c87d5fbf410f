/**
 * @file
 * Per-state power/energy accounting riding the simulator's own timing.
 *
 * Every state the simulator already times — LUN array ops (tR / tPROG /
 * tBERS), bus cmd/addr cycles and data bursts at the active data rate,
 * soft-controller CPU busy windows, DRAM row activity — deposits energy
 * into a per-component Meter when the state *ends*, following Olivier
 * et al.'s unified performance+power NAND model: energy is power ×
 * the duration the timing model already computed, so the power model
 * adds no events and perturbs nothing.
 *
 * Units: integer femtojoules throughout. Ticks are picoseconds, so
 * 1 mW sustained for 1 tick is exactly 1 fJ — energy integration is
 * exact integer arithmetic (fJ = mW × ticks) and average power over a
 * window is the exact integer division fJ / ticks = mW. A uint64_t
 * femtojoule counter holds ~18.4 kJ, far beyond any simulated run.
 * Integer addition is associative and commutative, so totals do not
 * depend on the order charges arrive in.
 *
 * Conservation invariant (checked by the auditor's Power rule): the
 * model's rail total equals the sum of every live meter's active
 * energy plus the energy retired by destroyed meters, and each meter's
 * total equals the sum of its per-state slots.
 */

#ifndef BABOL_OBS_POWER_POWER_HH
#define BABOL_OBS_POWER_POWER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace babol::obs::audit {
class Auditor;
}

namespace babol::obs::power {

class Meter;
class PowerGovernor;

/**
 * Datasheet-style power figures. The defaults are plausible for a
 * 3.3 V TLC part with an NV-DDR2 interface and a small embedded core —
 * the *relative* J/IO of controller flavours is the experiment; the
 * absolute scale is configurable.
 */
struct PowerParams
{
    // NAND array states (per LUN), in mW.
    std::uint32_t lunReadMw = 80;     //!< tR sensing
    std::uint32_t lunProgramMw = 115; //!< tPROG
    std::uint32_t lunEraseMw = 100;   //!< tBERS
    std::uint32_t lunMiscMw = 30;     //!< reset / feature ops
    std::uint32_t lunIdleMw = 1;      //!< standby (CE# high)

    // Channel bus (per channel), in mW.
    std::uint32_t busCmdMw = 15;       //!< command/address latch cycles
    std::uint32_t busSdrXferMw = 40;   //!< data burst, SDR
    std::uint32_t busDdrXferMwPer100MT = 60; //!< data burst, NV-DDR2
    std::uint32_t busIdleMw = 2;       //!< bus parked

    // Soft-controller CPU, in µW per MHz (integer so a 150 MHz
    // MicroBlaze and a 1 GHz core both stay exact).
    std::uint32_t cpuActiveUwPerMhz = 200;
    std::uint32_t cpuIdleUwPerMhz = 20;

    // Staging DRAM.
    std::uint32_t dramPjPerByte = 40;  //!< access energy incl. I/O
    std::uint32_t dramStandbyMw = 60;  //!< self-refresh floor

    /** Data-burst power for the given interface mode/rate. */
    std::uint32_t
    busXferMw(bool ddr, std::uint32_t rate_mt) const
    {
        if (!ddr)
            return busSdrXferMw;
        return busDdrXferMwPer100MT * rate_mt / 100;
    }
};

/** Rolling-window power budget enforced per channel controller. */
struct GovernorConfig
{
    std::uint64_t capMw = 0; //!< 0 = governor disabled
    Tick window = 500 * ticks::perUs;
    Tick idlePeriod = 200 * ticks::perUs;
};

/**
 * One simulation's power model: parameters, the rail-total
 * accumulator, and the live meters/governors. Each SimContext owns
 * one, and every meter charges the model of its event queue's context
 * (eq.context().power), so no component constructor carries it. A
 * context lives on one thread, so nothing here is synchronized.
 * Meters latch `enabled()` at construction: enable the model *before*
 * building the device, and a disabled model's meters are inert bools
 * on the hot path.
 */
class PowerModel
{
  public:
    PowerModel() = default;

    PowerModel(const PowerModel &) = delete;
    PowerModel &operator=(const PowerModel &) = delete;

    /** The process default context's model. */
    static PowerModel &instance();

    bool enabled() const { return enabled_; }
    void enable() { enabled_ = true; }
    void
    enable(const PowerParams &p)
    {
        params_ = p;
        enabled_ = true;
    }
    /** For tests: later-built meters become inert (existing meters
     *  keep their latched state). */
    void disable() { enabled_ = false; }

    const PowerParams &params() const { return params_; }

    void setGovernorConfig(GovernorConfig g) { governorCfg_ = g; }
    const GovernorConfig &governorConfig() const { return governorCfg_; }

    /** Total energy ever charged through this model's meters,
     *  including meters that have since been destroyed. */
    std::uint64_t railTotalFj() const { return railTotalFj_; }

    /** Energy carried by meters that have been destroyed. */
    std::uint64_t retiredFj() const { return retiredFj_; }

    /** Σ live meters' active (state-charged) energy. */
    std::uint64_t liveActiveFj() const;

    /** Σ live meters' idle/standby energy up to their queues' now(). */
    std::uint64_t liveIdleFj() const;

    /** Everything: rail total (active, incl. retired) + live idle. */
    std::uint64_t grandTotalFj() const { return railTotalFj() + liveIdleFj(); }

    /**
     * Like grandTotalFj() but with live meters' idle integrated to the
     * caller-supplied wall tick instead of each meter's own queue time.
     * Deltas of this at workload boundaries give per-phase energy that
     * is independent of where each meter's queue clock happened to
     * park.
     */
    std::uint64_t grandTotalFjAt(Tick wall) const;

    /** Rolled-up stats of governors that were destroyed. */
    std::uint64_t retiredThrottleWindows() const { return retiredWindows_; }
    Tick retiredThrottledTicks() const { return retiredThrottledTicks_; }

    /** Throttle windows opened across live + retired governors. */
    std::uint64_t throttleWindowsTotal() const;
    Tick throttledTicksTotal() const;

    /**
     * Verify the conservation invariant; on success returns true, on
     * failure fills @p detail with the mismatching figures.
     */
    bool conservationOk(std::string *detail = nullptr) const;

    /** Power-summary JSON: per-rail slot energies, governor stats,
     *  conservation figures. Meters render name-sorted. */
    void writeJson(std::ostream &os) const;

    /**
     * Auditor hook: report a Check::Power diagnostic when this (enabled)
     * model's conservation invariant fails. Called from
     * Auditor::finish() of the same context.
     */
    void audit(audit::Auditor &aud) const;

  private:
    friend class Meter;
    friend class PowerGovernor;

    void addRail(std::uint64_t fj) { railTotalFj_ += fj; }
    void registerMeter(Meter *m);
    void unregisterMeter(Meter *m);
    void retire(const Meter &m);
    void registerGovernor(PowerGovernor *g);
    void unregisterGovernor(PowerGovernor *g);
    void retireGovernor(const PowerGovernor &g);

    bool enabled_ = false;
    PowerParams params_;
    GovernorConfig governorCfg_;
    std::uint64_t railTotalFj_ = 0;
    std::uint64_t retiredFj_ = 0;
    std::uint64_t retiredWindows_ = 0;
    Tick retiredThrottledTicks_ = 0;

    std::vector<Meter *> meters_;
    std::vector<PowerGovernor *> governors_;
};

/**
 * One power rail: a component's per-state energy accumulators plus its
 * standby floor, charging the model of its event queue's context. At
 * most four named state slots; the DRAM meter is shared by every
 * channel of a device (each counter's final value is the same sum in
 * any order).
 *
 * Idle energy is derived lazily — `(now − Σ active ticks) × idleMw` —
 * so an idle component costs nothing to account for.
 */
class Meter
{
  public:
    static constexpr std::size_t kMaxSlots = 4;

    Meter(EventQueue &eq, std::string rail,
          std::initializer_list<const char *> slots, std::uint32_t idle_mw);
    ~Meter();

    Meter(const Meter &) = delete;
    Meter &operator=(const Meter &) = delete;

    /** Latched at construction; the whole hot path hides behind it. */
    bool enabled() const { return enabled_; }

    /** The owning model's parameters (valid only when enabled). */
    const PowerParams &params() const { return model_.params(); }

    /** Power-governor to notify of charges (throttle accounting). */
    void setGovernor(PowerGovernor *gov) { gov_ = gov; }
    PowerGovernor *governor() const { return gov_; }

    /**
     * Deposit @p mw sustained over [t0, t1] into @p slot: the common
     * one-state-ended charge. Equivalent to chargeEnergy + noteActive.
     */
    void
    charge(std::size_t slot, Tick t0, Tick t1, std::uint64_t mw)
    {
        if (!enabled_)
            return;
        const std::uint64_t fj = mw * (t1 - t0);
        chargeEnergy(slot, fj);
        noteActive(t0, t1, fj);
    }

    /** Energy-only deposit (no occupancy): callers that split one
     *  busy window across slots pair this with one noteActive. */
    void
    chargeEnergy(std::size_t slot, std::uint64_t fj)
    {
        if (!enabled_ || fj == 0)
            return;
        slotFj_[slot] += fj;
        totalFj_ += fj;
        model_.addRail(fj);
    }

    /**
     * Mark [t0, t1] as active (excluded from idle), emit the Perfetto
     * counter-rail samples for the window, and notify the governor.
     */
    void noteActive(Tick t0, Tick t1, std::uint64_t fj);

    std::uint64_t slotFj(std::size_t slot) const { return slotFj_[slot]; }

    /** Σ slots — every joule this rail charged. */
    std::uint64_t activeFj() const { return totalFj_; }

    /** Ticks spent in charged states. */
    std::uint64_t activeTicks() const { return activeTicks_; }

    /** Standby energy up to the component's queue time (saturating:
     *  overlapping foreground/background windows can make active time
     *  exceed wall time on a cache-op LUN). */
    std::uint64_t idleFj() const;

    /** Standby energy integrated to an explicit wall tick. */
    std::uint64_t idleFjAt(Tick wall) const;

    std::uint64_t grandFj() const { return activeFj() + idleFj(); }

    const std::string &rail() const { return rail_; }
    std::size_t slotCount() const { return slotCount_; }
    const char *slotName(std::size_t i) const { return slotNames_[i]; }
    std::uint32_t idleMw() const { return idleMw_; }

  private:
    PowerModel &model_;
    EventQueue &eq_;
    std::string rail_;
    std::array<const char *, kMaxSlots> slotNames_{};
    std::size_t slotCount_ = 0;
    std::uint32_t idleMw_ = 0;
    bool enabled_ = false;
    PowerGovernor *gov_ = nullptr;

    std::array<std::uint64_t, kMaxSlots> slotFj_{};
    std::uint64_t totalFj_ = 0;
    std::uint64_t activeTicks_ = 0;

    std::uint32_t ctrTrack_ = 0; //!< interned counter-rail name

    /** Registered only when enabled, so a disabled model leaves the
     *  registry (and every snapshot) untouched. */
    std::optional<MetricsGroup> metrics_;
};

/**
 * Rolling-window power-budget governor — the thermal-throttle actuator.
 * One per channel controller, fed by that channel's meters (LUNs, bus,
 * controller CPU), all of which live on the device's event queue: its
 * state advances in deterministic simulated-time order, so throttle
 * windows land identically on every rerun.
 *
 * The window is tracked in 16 coarse buckets; when the energy observed
 * over the trailing window exceeds cap × window, the governor opens a
 * forced idle window [now, now + idlePeriod]. The channel controller
 * defers request admission while throttled and drains on release.
 */
class PowerGovernor
{
  public:
    static constexpr std::size_t kBuckets = 16;

    /** Throttles against the cap of @p eq's context's model. */
    PowerGovernor(EventQueue &eq, std::string name);
    ~PowerGovernor();

    PowerGovernor(const PowerGovernor &) = delete;
    PowerGovernor &operator=(const PowerGovernor &) = delete;

    /** Meters report every charge here (via Meter::noteActive). */
    void addEnergy(Tick at, std::uint64_t fj);

    bool throttled(Tick now) const { return now < throttleUntil_; }
    Tick throttledUntil() const { return throttleUntil_; }

    /** Called when a forced idle window expires (controller drain). */
    void setOnRelease(std::function<void()> fn) { onRelease_ = std::move(fn); }

    const std::string &name() const { return name_; }
    std::uint64_t capMw() const { return cfg_.capMw; }
    const std::vector<std::pair<Tick, Tick>> &windows() const
    {
        return windows_;
    }
    Tick throttledTicks() const { return throttledTicks_; }

  private:
    struct Bucket
    {
        std::uint64_t index = 0;
        std::uint64_t fj = 0;
    };

    EventQueue &eq_;
    std::string name_;
    PowerModel &model_;
    GovernorConfig cfg_;
    Tick bucketWidth_ = 1;
    std::array<Bucket, kBuckets> buckets_{};
    Tick throttleUntil_ = 0;
    Tick throttledTicks_ = 0;
    std::vector<std::pair<Tick, Tick>> windows_;
    std::function<void()> onRelease_;
    EventHandle releaseEv_;
    std::uint32_t obsTrack_ = 0;
    std::uint32_t throttleLabel_ = 0;
};

} // namespace babol::obs::power

#endif // BABOL_OBS_POWER_POWER_HH
