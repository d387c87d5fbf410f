/**
 * @file
 * Binary ring-buffer trace recorder — the single recording backend for
 * every trace producer in the simulator (bus segments, controller ops,
 * FTL decisions, LUN busy periods, host IOs).
 *
 * Records are fixed-size PODs holding interned label ids, so the steady
 * state allocates nothing: the ring is sized once (when recording is
 * enabled or the capacity changes) and old records are overwritten when
 * it wraps, logic-analyzer style. Exporters (Perfetto JSON, VCD, the
 * BusTrace query API) walk the held window after the run.
 */

#ifndef BABOL_OBS_RECORDER_HH
#define BABOL_OBS_RECORDER_HH

#include <cstdint>
#include <vector>

#include "interner.hh"
#include "sim/types.hh"
#include "span.hh"

namespace babol::obs {

enum class RecKind : std::uint8_t {
    Complete, //!< closed interval [t0, t1]
    Begin,    //!< span opened at t0 (End pairs by span id)
    End,      //!< span closed at t0
    Instant,  //!< point event at t0
    Counter,  //!< counter-track sample at t0 (value in arg)
};

/** One fixed-size trace record (no owned memory). */
struct TraceRecord
{
    Tick t0 = 0;
    Tick t1 = 0;
    SpanId span = kNoSpan;
    SpanId parent = kNoSpan;
    std::uint64_t arg = 0;     //!< producer-defined (LPN, CE mask, chip...)
    std::uint32_t track = 0;   //!< interned component name
    std::uint32_t label = 0;   //!< interned event name
    RecKind kind = RecKind::Complete;
};

class TraceRecorder
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t(1) << 18;

    explicit TraceRecorder(Interner &interner,
                           std::size_t capacity = kDefaultCapacity)
        : interner_(interner), capacity_(capacity)
    {}

    Interner &interner() { return interner_; }
    const Interner &interner() const { return interner_; }

    /** Global recording switch; enabling preallocates the ring. */
    bool enabled() const { return enabled_; }
    void
    setEnabled(bool on)
    {
        enabled_ = on;
        if (on)
            reserveRing();
    }

    /** Resize the ring (drops held records, keeps totals). */
    void
    setCapacity(std::size_t records)
    {
        capacity_ = records ? records : 1;
        ring_.clear();
        ring_.shrink_to_fit();
        base_ = total_;
        if (enabled_)
            reserveRing();
    }

    /** Fresh span id (never 0). Cheap; valid even while disabled. */
    SpanId nextSpanId() { return ++lastSpan_; }

    /**
     * Start minting span ids from @p base + 1 — each fleet member's
     * context seeds its recorder with the member index in the top bits
     * so ids are process-unique and reproducible at any thread count.
     */
    void seedSpanIds(SpanId base) { lastSpan_ = base; }

    // --- Recording (no-ops returning kNoSpan while disabled) ---

    SpanId
    complete(std::uint32_t track, std::uint32_t label, Tick t0, Tick t1,
             SpanId parent = kNoSpan, std::uint64_t arg = 0)
    {
        if (!enabled_)
            return kNoSpan;
        TraceRecord rec;
        rec.kind = RecKind::Complete;
        rec.t0 = t0;
        rec.t1 = t1;
        rec.span = nextSpanId();
        rec.parent = parent;
        rec.arg = arg;
        rec.track = track;
        rec.label = label;
        push(rec);
        return rec.span;
    }

    SpanId
    beginSpan(std::uint32_t track, std::uint32_t label, Tick t,
              SpanId parent = kNoSpan, std::uint64_t arg = 0)
    {
        if (!enabled_)
            return kNoSpan;
        TraceRecord rec;
        rec.kind = RecKind::Begin;
        rec.t0 = t;
        rec.t1 = t;
        rec.span = nextSpanId();
        rec.parent = parent;
        rec.arg = arg;
        rec.track = track;
        rec.label = label;
        push(rec);
        return rec.span;
    }

    void
    endSpan(SpanId span, Tick t)
    {
        if (!enabled_ || span == kNoSpan)
            return;
        TraceRecord rec;
        rec.kind = RecKind::End;
        rec.t0 = t;
        rec.t1 = t;
        rec.span = span;
        push(rec);
    }

    void
    instant(std::uint32_t track, std::uint32_t label, Tick t,
            SpanId parent = kNoSpan, std::uint64_t arg = 0)
    {
        if (!enabled_)
            return;
        TraceRecord rec;
        rec.kind = RecKind::Instant;
        rec.t0 = t;
        rec.t1 = t;
        rec.span = nextSpanId();
        rec.parent = parent;
        rec.arg = arg;
        rec.track = track;
        rec.label = label;
        push(rec);
    }

    /**
     * One sample of a numeric timeline (a Perfetto counter track):
     * the series named by @p label holds @p value from @p t onward.
     * The power rails render through these.
     */
    void
    counter(std::uint32_t track, std::uint32_t label, Tick t,
            std::uint64_t value)
    {
        if (!enabled_)
            return;
        TraceRecord rec;
        rec.kind = RecKind::Counter;
        rec.t0 = t;
        rec.t1 = t;
        rec.arg = value;
        rec.track = track;
        rec.label = label;
        push(rec);
    }

    /**
     * Force-record regardless of the global switch — the per-bus
     * BusTrace enable uses this so existing harnesses keep working
     * without turning on whole-simulator tracing.
     */
    void
    push(const TraceRecord &rec)
    {
        if (ring_.size() < capacity_) {
            ring_.push_back(rec);
        } else {
            ring_[(total_ - base_) % capacity_] = rec;
        }
        ++total_;
    }

    // --- Query (indices are oldest-held-first) ---

    std::size_t size() const { return ring_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Records ever pushed, including overwritten ones. */
    std::uint64_t totalRecorded() const { return total_ - base_; }

    /** Records lost to ring wraparound. */
    std::uint64_t
    droppedRecords() const
    {
        return totalRecorded() - ring_.size();
    }

    /** Monotone sequence number of the oldest held record. */
    std::uint64_t seqOfOldest() const { return total_ - ring_.size(); }

    /** Sequence number the next pushed record will get (monotone across
     *  clear(), so producers can watermark "records after this point"). */
    std::uint64_t nextSeq() const { return total_; }

    const TraceRecord &
    at(std::size_t i) const
    {
        if (ring_.size() < capacity_)
            return ring_[i];
        return ring_[(total_ - base_ + i) % capacity_];
    }

    /** Visit held records oldest-first as fn(seq, record). */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        const std::uint64_t first = seqOfOldest();
        for (std::size_t i = 0; i < ring_.size(); ++i)
            fn(first + i, at(i));
    }

    /** Drop held records; totals restart but sequence numbers stay
     *  monotone (label interns survive). */
    void
    clear()
    {
        ring_.clear();
        base_ = total_;
        if (enabled_)
            reserveRing();
    }

  private:
    void
    reserveRing()
    {
        if (ring_.capacity() < capacity_)
            ring_.reserve(capacity_);
    }

    Interner &interner_;
    std::vector<TraceRecord> ring_;
    std::size_t capacity_;
    std::uint64_t total_ = 0; //!< pushes since construction/clear
    std::uint64_t base_ = 0;  //!< total_ value at the last setCapacity
    SpanId lastSpan_ = kNoSpan;
    bool enabled_ = false;
};

} // namespace babol::obs

#endif // BABOL_OBS_RECORDER_HH
