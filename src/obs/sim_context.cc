#include "sim_context.hh"

namespace babol {

SimContext::SimContext(std::uint32_t member)
    : obs::ExecContext(member), audit(*this, power),
      faults(*this)
{}

SimContext::SimContext(const SimContext &parent, std::uint32_t member)
    : SimContext(member)
{
    if (parent.audit.armed()) {
        obs::audit::Auditor::Config cfg = parent.audit.config();
        cfg.enableTrace = false;
        audit.arm(cfg);
    } else {
        audit.disarm();
    }
    if (parent.power.enabled())
        power.enable(parent.power.params());
    power.setGovernorConfig(parent.power.governorConfig());
}

SimContext &
SimContext::processDefault()
{
    static SimContext ctx;
    return ctx;
}

EventQueue::EventQueue() : EventQueue(SimContext::processDefault()) {}

} // namespace babol
