/**
 * @file
 * Shared observability command-line flags.
 *
 * Every bench and example harness accepts the same three switches
 * through this helper instead of hand-rolling the argv loop:
 *
 *   --trace-out FILE    write a Perfetto (Chrome trace_event) JSON of
 *                       the trace ring at exit
 *   --metrics-out FILE  dump the central metrics registry as JSON
 *   --audit[=FILE]      arm the conformance auditor in collector mode;
 *                       the report goes to stdout (or FILE) at exit and
 *                       the process exits non-zero when any diagnostic
 *                       was recorded
 *   --power-out FILE    enable the power model and dump the per-rail
 *                       energy summary JSON at exit
 *   --power-cap MW      enable the power model and arm a per-channel
 *                       power-budget governor with the given cap
 *
 * The options act on the process default context
 * (SimContext::processDefault()), the one a default-constructed
 * EventQueue binds.
 *
 * Usage pattern:
 *
 *   obs::cli::Options obs_opts;
 *   for (int i = 1; i < argc; ++i) {
 *       if (obs_opts.parse(argc, argv, i))
 *           continue;
 *       ... harness-specific flags ...
 *   }
 *   obs_opts.applyStartup();
 *   ... run (on default-constructed event queues) ...
 *   obs_opts.captureMetrics(eq);   // while the sim objects are alive
 *   return obs_opts.finalize();    // or fold into the harness status
 */

#ifndef BABOL_OBS_CLI_HH
#define BABOL_OBS_CLI_HH

#include <optional>
#include <string>

#include "metrics.hh"

namespace babol {
class EventQueue;
}

namespace babol::obs::cli {

struct Options
{
    std::string traceOut;
    std::string metricsOut;
    std::string auditOut; //!< empty = stdout
    bool audit = false;
    std::string powerOut;
    std::uint64_t powerCapMw = 0; //!< 0 = no governor

    /** One-line flag summary for usage messages. */
    static const char *usage();

    /**
     * Try to consume argv[i] (and a possible value argument). Returns
     * true — with @p i advanced past any value — when the flag was one
     * of ours; false to let the harness handle it.
     */
    bool parse(int argc, char **argv, int &i);

    /** Arm the auditor (collector mode, trace ring on) when --audit
     *  was given. Call once before the simulation starts. */
    void applyStartup() const;

    /**
     * Snapshot the metrics registry of @p eq's context while the run's
     * objects are still alive — harnesses that build per-run
     * simulations must call this before teardown. Only simulated
     * metrics land there; the event kernel's own host-side counters
     * stay in EventQueue::poolStats().
     */
    void captureMetrics(const EventQueue &eq);

    /**
     * Write the requested outputs: perfetto JSON, metrics JSON, and —
     * when auditing — the end-of-run conservation pass plus the
     * diagnostics report. Returns the suggested process exit status
     * (1 when the audit collected diagnostics, else 0).
     */
    int finalize() const;

  private:
    std::optional<MetricsSnapshot> snapshot_;
};

} // namespace babol::obs::cli

#endif // BABOL_OBS_CLI_HH
