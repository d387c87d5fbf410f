/**
 * @file
 * The deterministic fault-injection engine.
 *
 * One engine per simulated device: the NAND layer calls cheap hooks at
 * the points where real flash misbehaves — page loads, program/erase
 * verifies, array-op scheduling — and the engine consults an armed
 * FaultPlan to decide whether this occurrence is struck. Everything is
 * seed-driven: the same plan and seed produce the same injections and,
 * because every recovery path is itself deterministic, the same
 * recovery trace.
 *
 * Each SimContext owns one engine and the NAND layer reaches it as
 * eq.context().faults, so a plan armed in one simulation never strikes
 * another, and fleet members inject independently. A context lives on
 * one thread, so the engine is not synchronized.
 *
 * The engine also owns the cross-cutting recovery metrics the issue
 * calls out — `fault.injected`, `retry.steps`, `remap.count` — so the
 * controllers and the FTL report their recovery decisions through one
 * place, and it keeps a line-per-event recovery log that the tests
 * compare across runs for byte-identical reproduction.
 *
 * Layering: the engine builds into babol_obs (it depends only on the
 * obs registry and trace ring), so babol_nand and everything above can
 * use it without cycles.
 */

#ifndef BABOL_FAULT_FAULT_ENGINE_HH
#define BABOL_FAULT_FAULT_ENGINE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault_plan.hh"
#include "obs/hub.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace babol::fault {

/** Array-op families the StuckBusy hook distinguishes. */
enum class OpClass : std::uint8_t { Read, Program, Erase, Other };

class FaultEngine
{
  public:
    /** The engine of the context that owns @p exec: registers the
     *  fault/retry/remap metrics groups in its registry and traces
     *  injections into its ring. */
    explicit FaultEngine(obs::ExecContext &exec);

    FaultEngine(const FaultEngine &) = delete;
    FaultEngine &operator=(const FaultEngine &) = delete;

    /** Hot-path check: are hooks live? */
    bool armed() const { return armed_; }

    /** Install @p plan, reset all runtime state, seed the RNG. */
    void arm(FaultPlan plan);
    void disarm();

    const FaultPlan &plan() const { return plan_; }

    /** Plan-seeded RNG: injected flip positions draw from here so the
     *  whole campaign is a pure function of (plan, seed). */
    Rng &rng() { return rng_; }

    // --- NAND-layer hooks (no-ops returning "no fault" when disarmed) --

    /**
     * A page load is about to be served. Returns the number of extra
     * bits to flip inside the first ECC codeword (0 = untouched).
     * Covers BitBurst (one-shot) and Drift (persistent until
     * @p retry_level reaches the spec's level).
     */
    std::uint32_t onRead(std::string_view lun, std::uint32_t block,
                         std::uint32_t page, std::uint32_t retry_level,
                         Tick now);

    /** Program verify hook: true = force the FAIL bit (and the model
     *  skips committing the page, as a real failed verify would). */
    bool onProgram(std::string_view lun, std::uint32_t block,
                   std::uint32_t page, Tick now);

    /** Erase verify hook: true = force the FAIL bit. */
    bool onErase(std::string_view lun, std::uint32_t block, Tick now);

    /**
     * True when @p block of the LUN sits in a region a DieFail or
     * BlockFail has killed. The NAND layer fails every op on a dead
     * region: reads come back uncorrectable, program/erase raise FAIL.
     */
    bool deadAt(std::string_view lun, std::uint32_t block) const;

    /** True when an entire die matching @p lun is dead — a DieFail
     *  region covering every block (BlockFail regions don't count).
     *  The FTL uses this to tell die loss from block loss. */
    bool dieDead(std::string_view lun) const;

    /** Kill a die immediately (harness-driven `--diefail-at`): every
     *  LUN whose name contains @p where is dead from @p now on. The
     *  engine must be armed (campaigns arm at least an empty plan). */
    void failDie(std::string_view where, Tick now);

    /** Kill one block range immediately (harness-driven). */
    void failBlock(std::string_view where, std::uint32_t block_lo,
                   std::uint32_t block_hi, Tick now);

    /** Array-op scheduling hook: extra busy ticks (StuckBusy). */
    Tick onArrayOp(std::string_view lun, OpClass op, Tick duration,
                   Tick now);

    /**
     * True when a protocol violation observed on @p lun at @p now falls
     * inside the suppression window of a fault that already fired there
     * — the auditor tags such diagnostics fault-expected instead of
     * failing the run.
     */
    bool suppresses(std::string_view lun, Tick now) const;

    // --- Recovery reporting (controllers / FTL) ---

    /** A controller escalated the read-retry level (SET FEATURES). */
    void noteRetryStep(std::string_view who, std::uint32_t level,
                       Tick now);

    /** The FTL remapped a write / retired a block after a failure. */
    void noteRemap(std::string_view who, std::uint32_t chip,
                   std::uint32_t block, Tick now);

    /** An op gave up after exhausting its poll/timeout budget. */
    void noteTimeout(std::string_view who, Tick now);

    /** The crash harness cut power at @p now (counts as a PowerCut
     *  injection and lands in the deterministic recovery log). */
    void notePowerCut(std::string_view who, Tick now);

    // --- Introspection ---

    std::uint64_t injectedTotal() const { return injected_; }
    std::uint64_t injectedOf(FaultKind k) const
    {
        return injectedKind_[static_cast<std::size_t>(k)];
    }
    std::uint64_t retrySteps() const { return retrySteps_; }
    std::uint64_t remaps() const { return remaps_; }
    std::uint64_t timeouts() const { return timeouts_; }
    std::uint64_t suppressedViolations() const { return suppressed_; }

    /** Deterministic one-line-per-event recovery trace (armed only). */
    const std::vector<std::string> &log() const { return log_; }

    /** Render the counters as a short human-readable summary. */
    std::string summary() const;

  private:
    struct SpecState
    {
        std::uint32_t seen = 0;   //!< matching occurrences so far
        std::uint32_t fired = 0;  //!< firings consumed
        bool driftActive = false; //!< Drift latched, not yet recovered
    };

    /** A region of flash killed by DieFail/BlockFail. */
    struct DeadRegion
    {
        std::string where; //!< LUN-name substring (empty = every LUN)
        std::uint32_t blockLo = 0;
        std::uint32_t blockHi = ~0u;
    };

    bool matches(const FaultSpec &spec, std::string_view lun,
                 std::uint32_t block, std::uint32_t page) const;

    /** Occurrence bookkeeping: arm on nth, bound by count. */
    bool strike(const FaultSpec &spec, SpecState &st);


    void recordInjection(const FaultSpec &spec, std::string_view lun,
                         Tick now, const std::string &detail);
    void append(Tick now, const std::string &line);

    obs::ExecContext &exec_;
    bool armed_ = false;
    FaultPlan plan_;
    std::vector<SpecState> state_;
    Rng rng_;

    /** Per-LUN tick until which violations are fault-expected. */
    std::unordered_map<std::string, Tick> suppressUntil_;

    std::vector<DeadRegion> deadRegions_;

    std::uint64_t injected_ = 0;
    std::uint64_t injectedKind_[8] = {};
    std::uint64_t retrySteps_ = 0;
    std::uint64_t remaps_ = 0;
    std::uint64_t timeouts_ = 0;
    mutable std::uint64_t suppressed_ = 0;

    std::vector<std::string> log_;

    std::uint32_t obsTrack_ = 0;
    std::uint32_t lblInject_ = 0;
    std::uint32_t lblRecover_ = 0;

    obs::MetricsGroup faultMetrics_;
    obs::MetricsGroup retryMetrics_;
    obs::MetricsGroup remapMetrics_;
};

} // namespace babol::fault

#endif // BABOL_FAULT_FAULT_ENGINE_HH
