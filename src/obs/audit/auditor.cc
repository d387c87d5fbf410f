#include "auditor.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/power/power.hh"
#include "onfi_rules.hh"
#include "sim/logging.hh"

namespace babol::obs::audit {

const char *
toString(Check c)
{
    switch (c) {
      case Check::AcTiming:
        return "ac-timing";
      case Check::LunProtocol:
        return "lun-protocol";
      case Check::Channel:
        return "channel";
      case Check::Conservation:
        return "conservation";
      case Check::Power:
        return "power";
      case Check::Recovery:
        return "recovery";
      case Check::Reliability:
        return "reliability";
    }
    return "?";
}

std::string
Diagnostic::oneLine() const
{
    return strfmt("%s[%s] %s at %.3f us — %s: %s",
                  suppressed ? "[suppressed: fault-expected] " : "",
                  audit::toString(check), rule.c_str(), ticks::toUs(at),
                  where.c_str(), message.c_str());
}

Auditor::Auditor(ExecContext &exec, const power::PowerModel &power)
    : exec_(exec), power_(power)
{
    // BABOL_AUDIT=1 arms the default sanitizer mode: panic on the first
    // violation, no forced tracing (flight dumps show whatever the ring
    // holds). Mirrors the BABOL_DEBUG env convention.
    const char *env = std::getenv("BABOL_AUDIT");
    if (env && *env && std::strcmp(env, "0") != 0)
        arm();
}

void
Auditor::arm(Config cfg)
{
    cfg_ = cfg;
    rules_.clear();
    installBuiltins();
    diags_.clear();
    segments_ = 0;
    armed_ = true;
    if (cfg_.enableTrace)
        exec_.trace.setEnabled(true);
}

void
Auditor::disarm()
{
    armed_ = false;
    rules_.clear();
    diags_.clear();
    segments_ = 0;
}

void
Auditor::installBuiltins()
{
    rules_.push_back(std::make_unique<AcTimingRule>());
}

void
Auditor::addRule(std::unique_ptr<Rule> rule)
{
    rules_.push_back(std::move(rule));
}

void
Auditor::tapSegment(const SegmentView &seg)
{
    if (!armed_)
        return;
    ++segments_;
    if (seg.ceMask == 0) {
        report(Check::Channel, "chan.ce-none", seg.channel, seg.start,
               strfmt("segment '%.*s' drives the bus with no chip enabled",
                      static_cast<int>(seg.label.size()),
                      seg.label.data()));
    }
    for (auto &rule : rules_)
        rule->onSegment(seg, *this);
}

void
Auditor::tapFifoWait(std::string_view unit, std::string_view label,
                     Tick now, Tick waited)
{
    if (!armed_ || waited <= cfg_.starvationBound)
        return;
    report(Check::Channel, "chan.starvation", unit, now,
           strfmt("transaction '%.*s' waited %.1f us in the exec FIFO "
                  "(starvation bound %.1f us)",
                  static_cast<int>(label.size()), label.data(),
                  ticks::toUs(waited), ticks::toUs(cfg_.starvationBound)));
}

void
Auditor::report(Check check, std::string rule, std::string_view where,
                Tick at, std::string message, bool suppressed)
{
    Diagnostic d;
    d.check = check;
    d.rule = std::move(rule);
    d.where = std::string(where);
    d.message = std::move(message);
    d.at = at;
    d.span = exec_.current;
    d.flight = flightDump();
    d.suppressed = suppressed;
    diags_.push_back(d);
    if (cfg_.throwOnDiagnostic && !suppressed) {
        std::fprintf(stderr,
                     "audit: %s\n--- flight recorder ---\n%s",
                     d.oneLine().c_str(), d.flight.c_str());
        panic("audit: %s", d.oneLine().c_str());
    }
}

void
Auditor::finish()
{
    if (!armed_)
        return;

    // Energy conservation does not depend on the trace ring, so it
    // runs even when span accounting below has to bail out.
    power_.audit(*this);

    const TraceRecorder &tr = exec_.trace;
    if (tr.totalRecorded() == 0)
        return; // nothing was traced; nothing to account
    if (tr.droppedRecords() > 0) {
        // The ring wrapped: Begin/End pairs may straddle the lost
        // window, so span accounting would only produce noise.
        return;
    }

    const Interner &in = tr.interner();

    struct BeginInfo
    {
        Tick t0 = 0;
        std::uint32_t label = 0;
        std::uint32_t track = 0;
        bool closed = false;
        bool isOp = false;
    };
    std::map<SpanId, BeginInfo> begins;
    std::set<SpanId> parentsWithSegment;

    tr.forEach([&](std::uint64_t, const TraceRecord &rec) {
        switch (rec.kind) {
          case RecKind::Begin: {
            BeginInfo info;
            info.t0 = rec.t0;
            info.label = rec.label;
            info.track = rec.track;
            const std::string &label = in.label(rec.label);
            info.isOp = label.rfind("op.", 0) == 0;
            begins[rec.span] = info;
            break;
          }
          case RecKind::End: {
            auto it = begins.find(rec.span);
            if (it == begins.end()) {
                report(Check::Conservation, "span.orphan-end", "trace",
                       rec.t0,
                       strfmt("END for span %llu with no matching BEGIN",
                              static_cast<unsigned long long>(rec.span)));
            } else {
                if (rec.t0 < it->second.t0) {
                    report(Check::Conservation, "span.negative", "trace",
                           rec.t0,
                           strfmt("span %llu ('%s') ends before it "
                                  "begins",
                                  static_cast<unsigned long long>(
                                      rec.span),
                                  in.label(it->second.label).c_str()));
                }
                it->second.closed = true;
            }
            break;
          }
          case RecKind::Complete: {
            if (rec.parent != kNoSpan) {
                parentsWithSegment.insert(rec.parent);
                auto it = begins.find(rec.parent);
                if (it != begins.end() && rec.t0 < it->second.t0) {
                    report(Check::Conservation, "span.nesting", "trace",
                           rec.t0,
                           strfmt("'%s' starts before its parent span "
                                  "%llu ('%s') opened",
                                  in.label(rec.label).c_str(),
                                  static_cast<unsigned long long>(
                                      rec.parent),
                                  in.label(it->second.label).c_str()));
                }
            }
            break;
          }
          case RecKind::Instant:
          case RecKind::Counter:
            break;
        }
    });

    for (const auto &[span, info] : begins) {
        if (!info.closed) {
            report(Check::Conservation, "span.never-closed",
                   in.label(info.track), info.t0,
                   strfmt("span %llu ('%s') opened at %.3f us never "
                          "closed",
                          static_cast<unsigned long long>(span),
                          in.label(info.label).c_str(),
                          ticks::toUs(info.t0)));
        }
        if (info.isOp && info.closed &&
            parentsWithSegment.find(span) == parentsWithSegment.end()) {
            report(Check::Conservation, "op.no-segment",
                   in.label(info.track), info.t0,
                   strfmt("op span %llu ('%s') produced no bus segment",
                          static_cast<unsigned long long>(span),
                          in.label(info.label).c_str()));
        }
    }
}

std::string
Auditor::flightDump() const
{
    const TraceRecorder &tr = exec_.trace;
    const Interner &in = tr.interner();
    const std::size_t held = tr.size();
    const std::size_t n = std::min(cfg_.flightRecords, held);
    std::ostringstream os;
    if (n == 0) {
        os << "  (trace ring empty — arm with enableTrace or "
              "eq.context().trace.setEnabled(true) for flight dumps)\n";
        return os.str();
    }
    const std::uint64_t hidden =
        tr.droppedRecords() + static_cast<std::uint64_t>(held - n);
    if (hidden > 0) {
        os << strfmt("  ... %llu earlier record(s) not shown\n",
                     static_cast<unsigned long long>(hidden));
    }
    for (std::size_t i = held - n; i < held; ++i) {
        const TraceRecord &rec = tr.at(i);
        switch (rec.kind) {
          case RecKind::Complete:
            os << strfmt("  [%10.3f .. %10.3f us] %-12s ce=%02llx  %s\n",
                         ticks::toUs(rec.t0), ticks::toUs(rec.t1),
                         in.label(rec.track).c_str(),
                         static_cast<unsigned long long>(rec.arg),
                         in.label(rec.label).c_str());
            break;
          case RecKind::Begin:
            os << strfmt("  [%10.3f us %13s] %-12s BEGIN %s (span %llu)\n",
                         ticks::toUs(rec.t0), "",
                         in.label(rec.track).c_str(),
                         in.label(rec.label).c_str(),
                         static_cast<unsigned long long>(rec.span));
            break;
          case RecKind::End:
            // End records carry only the span id (track stays 0).
            os << strfmt("  [%10.3f us %13s] %-12s END   (span %llu)\n",
                         ticks::toUs(rec.t0), "", "-",
                         static_cast<unsigned long long>(rec.span));
            break;
          case RecKind::Instant:
            os << strfmt("  [%10.3f us %13s] %-12s !%s\n",
                         ticks::toUs(rec.t0), "",
                         in.label(rec.track).c_str(),
                         in.label(rec.label).c_str());
            break;
          case RecKind::Counter:
            os << strfmt("  [%10.3f us %13s] %-12s = %llu\n",
                         ticks::toUs(rec.t0), "",
                         in.label(rec.label).c_str(),
                         static_cast<unsigned long long>(rec.arg));
            break;
        }
    }
    return os.str();
}

std::size_t
Auditor::unsuppressedCount() const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diags_)
        if (!d.suppressed)
            ++n;
    return n;
}

void
Auditor::writeReport(std::ostream &os) const
{
    const std::size_t counted = unsuppressedCount();
    if (diags_.empty() || counted == 0) {
        os << strfmt("audit: clean — %llu segment(s) audited, "
                     "0 diagnostics",
                     static_cast<unsigned long long>(segments_));
        if (!diags_.empty()) {
            os << strfmt(" (%zu fault-expected, suppressed)",
                         diags_.size());
        }
        os << "\n";
        if (diags_.empty())
            return;
    } else {
        os << strfmt("audit: %zu diagnostic(s) over %llu segment(s)",
                     counted,
                     static_cast<unsigned long long>(segments_));
        if (diags_.size() != counted) {
            os << strfmt(" (+%zu fault-expected, suppressed)",
                         diags_.size() - counted);
        }
        os << "\n";
    }
    for (std::size_t i = 0; i < diags_.size(); ++i) {
        const Diagnostic &d = diags_[i];
        os << strfmt("\n[%zu] %s\n", i + 1, d.oneLine().c_str());
        if (d.span != kNoSpan) {
            os << strfmt("    span context: %llu\n",
                         static_cast<unsigned long long>(d.span));
        }
        os << "    --- flight recorder ---\n" << d.flight;
    }
}

} // namespace babol::obs::audit
