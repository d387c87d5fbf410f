/**
 * @file
 * SimContext: everything one simulation owns besides its event queue —
 * the trace ring, metrics registry and ambient span (ExecContext), the
 * conformance auditor, the power model and the fault engine.
 *
 * The code that owns a simulation's EventQueue owns its context too,
 * and binds the two at construction: EventQueue(SimContext &). Every
 * SimObject already holds its queue, so it reaches its context through
 * eq.context() and no component constructor carries these services. A
 * default-constructed queue binds processDefault(), the context every
 * stand-alone harness run uses.
 *
 * Two simulations with two contexts share nothing but the label
 * interner, so a fault plan armed in one never strikes the other, and
 * power totals, audit verdicts, metrics and trace rings stay apart.
 * Fleet mode gives each member its own context, built from the
 * parent's with the member id as its span namespace.
 */

#ifndef BABOL_OBS_SIM_CONTEXT_HH
#define BABOL_OBS_SIM_CONTEXT_HH

#include <cstdint>

#include "fault/fault_engine.hh"
#include "obs/audit/auditor.hh"
#include "obs/hub.hh"
#include "obs/power/power.hh"
#include "sim/event_queue.hh"

namespace babol {

class SimContext : public obs::ExecContext
{
  public:
    /**
     * A stand-alone simulation: span namespace @p member, the auditor
     * armed as a sanitizer when BABOL_AUDIT is set, the power model
     * disabled, the fault engine disarmed.
     */
    explicit SimContext(std::uint32_t member = 0);

    /**
     * A fleet member of @p parent: span namespace @p member, the
     * parent's armed audit config (without its trace switch — a
     * member's ring stays off) and its power enablement, parameters
     * and governor config. Build it before the member's event queue.
     */
    SimContext(const SimContext &parent, std::uint32_t member);

    /** The context a default-constructed EventQueue binds. */
    static SimContext &processDefault();

    obs::power::PowerModel power;
    obs::audit::Auditor audit;
    fault::FaultEngine faults;
};

} // namespace babol

#endif // BABOL_OBS_SIM_CONTEXT_HH
