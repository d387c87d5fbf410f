/**
 * @file
 * Bus-event trace: the simulation's stand-in for the paper's Keysight
 * logic analyzer (Fig. 11).
 *
 * Every executed segment records its span, chip mask, and label with
 * picosecond resolution. Harnesses query the trace to measure polling
 * periods and detection delays, and can render a human-readable timeline.
 *
 * Recording goes through the simulation's obs ring buffer: labels are
 * interned (no heap allocation per segment after a label's first
 * appearance) and each BusTrace is one *track* in the ring, identified
 * by its channel name. Query APIs (find/periodsOf/...) materialize
 * TraceEvent values from this instance's slice of the ring on demand.
 */

#ifndef BABOL_CHAN_TRACE_HH
#define BABOL_CHAN_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/hub.hh"
#include "obs/label.hh"
#include "sim/types.hh"

namespace babol::chan {

/** Materialized view of one recorded segment (query results). */
struct TraceEvent
{
    Tick start = 0;
    Tick end = 0;
    std::uint32_t ceMask = 0;
    std::string label;
};

class BusTrace
{
  public:
    /**
     * A view over @p rec (the bus's simulation ring); @p channel_name
     * names this trace's track in it.
     */
    BusTrace(obs::TraceRecorder &rec, std::string_view channel_name)
        : rec_(rec), track_(obs::interner().intern(channel_name)),
          sinceSeq_(rec.nextSeq())
    {}

    /**
     * Start/stop recording this bus (off by default; recording costs
     * memory). Segments are also captured — regardless of this switch —
     * whenever whole-simulation tracing (the ring itself) is enabled.
     */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_ || rec_.enabled(); }

    /**
     * Span id for a segment about to run, so bus callbacks can adopt
     * it as their ambient context before the record is written
     * (kNoSpan when recording is off).
     */
    obs::SpanId
    reserveSpan()
    {
        return enabled() ? rec_.nextSpanId() : obs::kNoSpan;
    }

    /**
     * Record one segment [start, end] under this trace's track. The
     * label is already interned, so recording allocates nothing. Returns
     * the segment's span id (kNoSpan when recording is off); pass a
     * reserved @p span to record under a pre-minted id.
     */
    obs::SpanId
    record(Tick start, Tick end, std::uint32_t ce_mask,
           obs::Label label, obs::SpanId parent = obs::kNoSpan,
           obs::SpanId span = obs::kNoSpan)
    {
        if (!enabled())
            return obs::kNoSpan;
        obs::TraceRecorder &r = rec_;
        obs::TraceRecord record;
        record.kind = obs::RecKind::Complete;
        record.t0 = start;
        record.t1 = end;
        record.span = span != obs::kNoSpan ? span : r.nextSpanId();
        record.parent = parent;
        record.arg = ce_mask;
        record.track = track_;
        record.label = label.id();
        r.push(record);
        return record.span;
    }

    /** Compatibility shim for the pre-obs struct API. */
    void
    record(const TraceEvent &ev)
    {
        record(ev.start, ev.end, ev.ceMask, ev.label);
    }

    /** This trace's events, oldest first (materialized from the ring). */
    std::vector<TraceEvent> events() const;

    std::size_t eventCount() const;

    /** Forget this trace's past records (the ring itself is shared and
     *  keeps running; we just move our watermark). */
    void clear() { sinceSeq_ = rec_.nextSeq(); }

    /** Events whose label contains @p needle. */
    std::vector<TraceEvent> find(const std::string &needle) const;

    /**
     * Gaps between consecutive starts of events matching @p needle —
     * e.g. the READ STATUS polling period of Fig. 11.
     */
    std::vector<Tick> periodsOf(const std::string &needle) const;

    /** Fraction of [t0, t1] during which the bus was occupied. */
    double busyFraction(Tick t0, Tick t1) const;

    /** Render an indented, timestamped timeline (µs) of all events. */
    std::string renderTimeline() const;

    /**
     * Emit the trace as a Value Change Dump (1 ps timescale) with three
     * signals — bus_busy, ce_mask, and the running segment's label as a
     * string variable — loadable in GTKWave next to real logic-analyzer
     * captures.
     */
    void writeVcd(std::ostream &os,
                  const std::string &channel_name = "channel") const;

  private:
    /** Visit this instance's Complete records, oldest first. */
    template <typename F>
    void
    forEachMine(F &&fn) const
    {
        rec_.forEach([&](std::uint64_t seq, const obs::TraceRecord &r) {
            if (seq >= sinceSeq_ && r.track == track_ &&
                r.kind == obs::RecKind::Complete) {
                fn(r);
            }
        });
    }

    obs::TraceRecorder &rec_;
    std::uint32_t track_;
    std::uint64_t sinceSeq_; //!< ring records before this are not ours
    bool enabled_ = false;
};

} // namespace babol::chan

#endif // BABOL_CHAN_TRACE_HH
