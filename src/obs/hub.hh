/**
 * @file
 * The observability hub: one process-wide home for the label interner,
 * plus the *execution context* — the trace recorder, metrics registry
 * and ambient span slot the recording helpers route through.
 *
 * A device runs single-threaded (one EventQueue, sequential callbacks),
 * and a classic run records everything into the hub's main
 * ExecContext. Fleet mode gives every member its own ExecContext and
 * installs it on the worker thread via a thread-local while that
 * member runs, so trace records, metrics and span ids land in
 * per-member buffers with no synchronization on the hot path.
 *
 * Shared pieces and their thread-safety:
 *  - Interner: global (ids must agree across members so records decode
 *    uniformly); mutex-guarded — interning is a cold, construction-time
 *    path.
 *  - MetricsRegistry: one per ExecContext; the main context's registry
 *    is the process registry. Counters themselves stay plain — each
 *    belongs to exactly one member's components.
 *  - Span ids: each ExecContext mints ids in its own namespace (member
 *    id in the top bits), so ids are unique across members and
 *    identical at any thread count. The main context keeps namespace 0.
 *
 * Tests call reset() between runs so recorded state never leaks across
 * fixtures.
 */

#ifndef BABOL_OBS_HUB_HH
#define BABOL_OBS_HUB_HH

#include "interner.hh"
#include "metrics.hh"
#include "recorder.hh"
#include "span.hh"

namespace babol {
class EventQueue;
} // namespace babol

namespace babol::obs {

/** Member index is packed into the top bits of every minted SpanId. */
constexpr unsigned kSpanMemberShift = 48;

/**
 * Everything the recording helpers resolve per execution stream: a
 * trace ring, a private metrics registry, and the ambient span. One
 * per fleet member; the hub owns the main one.
 */
struct ExecContext
{
    ExecContext(Interner &interner, std::uint32_t member,
                std::size_t traceCapacity = TraceRecorder::kDefaultCapacity)
        : trace(interner, traceCapacity)
    {
        trace.seedSpanIds(SpanId(member) << kSpanMemberShift);
    }

    ExecContext(const ExecContext &) = delete;
    ExecContext &operator=(const ExecContext &) = delete;

    TraceRecorder trace;
    MetricsRegistry metrics;
    SpanId current = kNoSpan;
};

class Hub
{
  public:
    static Hub &instance();

    Interner &interner() { return interner_; }

    /** The main-thread/classic context. */
    ExecContext &main() { return main_; }

    /** The context installed on this thread (the main one by default). */
    static ExecContext &current();

    /** Install @p ctx on this thread; @return the previous binding
     *  (nullptr = main). Prefer ScopedExecContext. */
    static ExecContext *exchangeCurrent(ExecContext *ctx);

    /** Back-compat accessors: the main context's recorder and the
     *  process registry. Routing-sensitive code should go through the
     *  free helpers trace()/metrics() instead. */
    TraceRecorder &trace() { return main_.trace; }
    MetricsRegistry &metrics() { return main_.metrics; }

    /** Ambient span for synchronously-triggered work (kNoSpan if none). */
    SpanId currentCtx() const { return current().current; }

    /**
     * Drop recorded trace state and the ambient context of the current
     * execution context. Metric registrations and interned labels
     * survive (they belong to live objects); the recording switch is
     * turned off.
     */
    void
    reset()
    {
        ExecContext &ctx = current();
        ctx.trace.setEnabled(false);
        ctx.trace.clear();
        ctx.current = kNoSpan;
    }

    /** RAII: installs @p ctx as the ambient span for the current scope
     *  (within the current execution context). */
    class ScopedCtx
    {
      public:
        explicit ScopedCtx(SpanId ctx)
            : ctx_(Hub::current()), prev_(ctx_.current)
        {
            ctx_.current = ctx;
        }
        ~ScopedCtx() { ctx_.current = prev_; }

        ScopedCtx(const ScopedCtx &) = delete;
        ScopedCtx &operator=(const ScopedCtx &) = delete;

      private:
        ExecContext &ctx_;
        SpanId prev_;
    };

  private:
    Hub() : main_(interner_, 0) {}

    Interner interner_;
    ExecContext main_;
};

/** RAII: routes this thread's obs helpers through @p ctx (nullptr =
 *  back to the hub's main context). */
class ScopedExecContext
{
  public:
    explicit ScopedExecContext(ExecContext *ctx)
        : prev_(Hub::exchangeCurrent(ctx))
    {}
    ~ScopedExecContext() { Hub::exchangeCurrent(prev_); }

    ScopedExecContext(const ScopedExecContext &) = delete;
    ScopedExecContext &operator=(const ScopedExecContext &) = delete;

  private:
    ExecContext *prev_;
};

inline Hub &hub() { return Hub::instance(); }
inline Interner &interner() { return hub().interner(); }
inline ExecContext &currentExec() { return Hub::current(); }
inline TraceRecorder &trace() { return Hub::current().trace; }
inline MetricsRegistry &metrics() { return Hub::current().metrics; }
inline SpanId currentCtx() { return Hub::current().current; }

/**
 * Register the event kernel's pool/scheduler gauges under
 * "<prefix>.pool_live", "<prefix>.wheel_inserts", ... The obs layer
 * depends on sim (never the reverse), so the bridge lives here.
 */
MetricsGroup &registerEventQueueMetrics(MetricsGroup &group,
                                        const EventQueue &eq);

} // namespace babol::obs

#endif // BABOL_OBS_HUB_HH
