/**
 * @file
 * The online ONFI conformance auditor — a software logic analyzer.
 *
 * The paper validates BABOL by pointing a Keysight analyzer at the real
 * bus and checking the waveforms against the datasheet's AC timings.
 * The Auditor is that instrument's simulation twin: inline taps (the
 * ChannelBus describes every executed segment cycle by cycle; the LUN
 * and ExecUnit report guard events) feed a registry of rules that
 * validate timing and protocol *while the simulation runs*, and an
 * end-of-run pass checks cross-layer span conservation over the shared
 * trace ring.
 *
 * Two operating modes:
 *  - sanitizer (BABOL_AUDIT=1, or arm() with throwOnDiagnostic=true):
 *    the first violation panics, flight-recorder dump on stderr —
 *    a protocol sanitizer alongside ASan for CI;
 *  - collector (--audit, throwOnDiagnostic=false): diagnostics are
 *    collected and reported at the end; harnesses exit non-zero when
 *    any were recorded.
 *
 * One auditor belongs to each SimContext (obs/sim_context.hh): the
 * inline taps reach it as eq.context().audit, and it reads the trace
 * ring and power model of that same context, so two simulations never
 * mix segment streams, flight dumps or verdicts. The auditor has no
 * link dependency on the nand/chan libraries: it consumes only
 * header-only PODs (TimingParams, CycleType) so babol_obs stays at the
 * bottom of the library stack.
 *
 * Fleet runs: each member's context arms its auditor with the parent's
 * config; the stateful rules (per-CE AC timing history) and the flight
 * dumps stay coherent because a device lives wholly in one member, and
 * the fleet verdict sums the members' unsuppressed diagnostics in
 * member order.
 */

#ifndef BABOL_OBS_AUDIT_AUDITOR_HH
#define BABOL_OBS_AUDIT_AUDITOR_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "diagnostic.hh"
#include "nand/timing.hh"
#include "obs/hub.hh"
#include "obs/span.hh"
#include "sim/types.hh"

namespace babol::obs::power {
class PowerModel;
} // namespace babol::obs::power

namespace babol::obs::audit {

/** One command/address latch cycle or data burst within a segment. */
struct CycleView
{
    nand::CycleType type = nand::CycleType::CmdLatch;
    std::uint8_t value = 0;   //!< the byte latched (CmdLatch/AddrLatch)
    std::uint32_t bytes = 0;  //!< burst length (DataIn/DataOut)
    Tick start = 0;           //!< first edge of the cycle/burst
    Tick end = 0;             //!< bus occupancy end (incl. strobe postamble)
    Tick dataEnd = 0;         //!< last data transfer (end minus postamble)
};

/** The auditor's view of one executed bus segment. */
struct SegmentView
{
    std::string_view channel; //!< bus name (one track per channel)
    std::string_view label;   //!< segment label ("READ.cmd", ...)
    std::uint32_t ceMask = 0;
    Tick start = 0; //!< segment start (CE setup begins here)
    Tick end = 0;   //!< bus release (includes postDelay, e.g. tWB)
    SpanId span = kNoSpan;   //!< the segment's own span (if tracing)
    SpanId parent = kNoSpan; //!< the controller op's span (if any)
    const nand::TimingParams *timing = nullptr; //!< active bus timing
    std::vector<CycleView> cycles;
};

class Auditor;

/** One pluggable conformance rule (datasheet-specific rules register
 *  through Auditor::addRule). */
class Rule
{
  public:
    virtual ~Rule() = default;
    virtual const char *name() const = 0;
    /** Called for every executed segment, in issue order. */
    virtual void onSegment(const SegmentView &seg, Auditor &aud) = 0;
};

class Auditor
{
  public:
    struct Config
    {
        /** Panic (SimPanic) on the first diagnostic — sanitizer mode. */
        bool throwOnDiagnostic = true;

        /** Turn on the shared trace ring so flight dumps have content. */
        bool enableTrace = false;

        /** Ring records rendered into each flight dump. */
        std::size_t flightRecords = 24;

        /** A short-control transaction waiting in the exec FIFO longer
         *  than this is reported as arbiter starvation. The default
         *  clears a FIFO's worth of worst-case erases. */
        Tick starvationBound = 20 * ticks::perMs;

        /** Audit against this datasheet instead of the bus's configured
         *  timing — catches a mis-configured (e.g. shortened) preset. */
        std::optional<nand::TimingParams> datasheet;
    };

    /**
     * The auditor of the context that owns @p exec and @p power (see
     * SimContext). Arms itself as a sanitizer when BABOL_AUDIT is set.
     */
    Auditor(ExecContext &exec, const power::PowerModel &power);

    Auditor(const Auditor &) = delete;
    Auditor &operator=(const Auditor &) = delete;

    /** True when taps should report (the hot-path check). */
    bool armed() const { return armed_; }

    /** Install the built-in rules and start auditing. Clears previous
     *  diagnostics and rule state. */
    void arm(Config cfg);
    void arm() { arm(Config{}); }
    void disarm();

    const Config &config() const { return cfg_; }

    /** Register an extra (e.g. datasheet-specific) rule. */
    void addRule(std::unique_ptr<Rule> rule);

    // --- Taps (called by the instrumented layers when armed) ---

    /** ChannelBus: one segment was put on the wires. */
    void tapSegment(const SegmentView &seg);

    /** ExecUnit: a transaction left the FIFO after waiting @p waited. */
    void tapFifoWait(std::string_view unit, std::string_view label,
                     Tick now, Tick waited);

    /**
     * Record a violation. In sanitizer mode this prints the flight dump
     * and panics; in collector mode the Diagnostic (with span context
     * and flight dump) is stored for the end-of-run report.
     *
     * @p suppressed marks the violation as expected fallout of an
     * injected fault (the caller consulted the fault engine): it is
     * stored tagged for the report but never panics and never fails
     * the run.
     */
    void report(Check check, std::string rule, std::string_view where,
                Tick at, std::string message, bool suppressed = false);

    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

    /** Diagnostics that actually count against the run. */
    std::size_t unsuppressedCount() const;

    void clearDiagnostics() { diags_.clear(); }

    /** Segments audited since arm() (for "audit clean" reporting). */
    std::uint64_t segmentsAudited() const { return segments_; }

    /**
     * End-of-run conservation pass over this context's power model
     * (energy is conserved) and trace ring (every opened span closes,
     * every op span has at least one bus segment, nesting is
     * well-formed). Span accounting is skipped when the ring wrapped —
     * conservation cannot be judged from a partial window.
     */
    void finish();

    /** Render the last N held ring records, logic-analyzer style. */
    std::string flightDump() const;

    /** Human-readable report of all collected diagnostics. */
    void writeReport(std::ostream &os) const;

  private:
    void installBuiltins();

    ExecContext &exec_;
    const power::PowerModel &power_;
    bool armed_ = false;
    Config cfg_;
    std::vector<std::unique_ptr<Rule>> rules_;
    std::vector<Diagnostic> diags_;
    std::uint64_t segments_ = 0;
};

} // namespace babol::obs::audit

#endif // BABOL_OBS_AUDIT_AUDITOR_HH
