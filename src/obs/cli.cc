#include "cli.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "perfetto.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim_context.hh"

namespace babol::obs::cli {

const char *
Options::usage()
{
    return "[--trace-out FILE] [--metrics-out FILE] [--audit[=FILE]] "
           "[--power-out FILE] [--power-cap MW]";
}

bool
Options::parse(int argc, char **argv, int &i)
{
    const char *arg = argv[i];
    if (!std::strcmp(arg, "--trace-out") && i + 1 < argc) {
        traceOut = argv[++i];
        return true;
    }
    if (!std::strcmp(arg, "--metrics-out") && i + 1 < argc) {
        metricsOut = argv[++i];
        return true;
    }
    if (!std::strcmp(arg, "--audit")) {
        audit = true;
        return true;
    }
    if (!std::strncmp(arg, "--audit=", 8)) {
        audit = true;
        auditOut = arg + 8;
        return true;
    }
    if (!std::strcmp(arg, "--power-out") && i + 1 < argc) {
        powerOut = argv[++i];
        return true;
    }
    if (!std::strcmp(arg, "--power-cap") && i + 1 < argc) {
        const char *val = argv[++i];
        const auto cap = parseDigits(val);
        if (!cap || *cap == 0)
            fatal("--power-cap needs a positive cap in mW, got '%s'", val);
        powerCapMw = *cap;
        return true;
    }
    return false;
}

void
Options::applyStartup() const
{
    SimContext &ctx = SimContext::processDefault();
    if (!traceOut.empty())
        ctx.trace.setEnabled(true);
    if (!powerOut.empty() || powerCapMw > 0) {
        auto &pm = ctx.power;
        pm.enable();
        if (powerCapMw > 0) {
            power::GovernorConfig g;
            g.capMw = powerCapMw;
            pm.setGovernorConfig(g);
        }
    }
    if (!audit)
        return;
    audit::Auditor::Config cfg;
    cfg.throwOnDiagnostic = false; // collect; report at finalize()
    cfg.enableTrace = true;        // flight dumps + conservation pass
    ctx.audit.arm(cfg);
}

void
Options::captureMetrics(const EventQueue &eq)
{
    snapshot_ = eq.context().metrics.snapshot();
    snapshot_->simTicks = eq.now();
}

int
Options::finalize() const
{
    SimContext &ctx = SimContext::processDefault();
    if (!traceOut.empty()) {
        std::ofstream out(traceOut);
        if (!out)
            fatal("cannot open %s", traceOut.c_str());
        writePerfettoJson(out, ctx.trace);
        std::printf("wrote %llu trace records to %s\n",
                    static_cast<unsigned long long>(ctx.trace.size()),
                    traceOut.c_str());
    }

    if (!metricsOut.empty()) {
        std::ofstream out(metricsOut);
        if (!out)
            fatal("cannot open %s", metricsOut.c_str());
        if (snapshot_)
            MetricsRegistry::writeJson(out, *snapshot_);
        else
            ctx.metrics.writeJson(out);
        std::printf("wrote metrics to %s\n", metricsOut.c_str());
    }

    if (!powerOut.empty()) {
        std::ofstream out(powerOut);
        if (!out)
            fatal("cannot open %s", powerOut.c_str());
        ctx.power.writeJson(out);
        std::printf("wrote power summary to %s\n", powerOut.c_str());
    }
    if (powerCapMw > 0) {
        const auto &pm = ctx.power;
        std::printf("power governor: cap %llu mW, %llu throttle "
                    "window(s), %.1f us throttled\n",
                    static_cast<unsigned long long>(powerCapMw),
                    static_cast<unsigned long long>(
                        pm.throttleWindowsTotal()),
                    ticks::toUs(pm.throttledTicksTotal()));
    }

    auto &aud = ctx.audit;
    if (!audit || !aud.armed())
        return 0;

    aud.finish(); // cross-layer span conservation over the trace ring
    if (auditOut.empty()) {
        aud.writeReport(std::cout);
    } else {
        std::ofstream out(auditOut);
        if (!out)
            fatal("cannot open %s", auditOut.c_str());
        aud.writeReport(out);
        std::printf("wrote audit report to %s\n", auditOut.c_str());
    }
    // Suppressed (fault-expected) diagnostics never fail the run.
    return aud.unsuppressedCount() == 0 ? 0 : 1;
}

} // namespace babol::obs::cli
