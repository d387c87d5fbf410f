/**
 * @file
 * The observability hub: the process-wide label interner, plus the
 * *execution context* — the trace recorder, metrics registry and
 * ambient span slot one simulation records into.
 *
 * An ExecContext is part of a SimContext (obs/sim_context.hh), and
 * code reaches it through its event queue: eq.context().trace,
 * eq.context().metrics, eq.context().current. A fleet member builds
 * its own SimContext, so trace records, metrics and span ids land in
 * per-member buffers with no synchronization on the hot path.
 *
 * Shared pieces and their thread-safety:
 *  - Interner: process-global (ids must agree across members so
 *    records decode uniformly); mutex-guarded — interning is a cold,
 *    construction-time path.
 *  - MetricsRegistry: one per ExecContext. Counters themselves stay
 *    plain — each belongs to exactly one simulation's components.
 *  - Span ids: each ExecContext mints ids in its own namespace (member
 *    id in the top bits), so ids are unique across members and
 *    identical at any thread count. Stand-alone simulations use
 *    namespace 0.
 *
 * A test that needs fresh recorded state builds a fresh context.
 */

#ifndef BABOL_OBS_HUB_HH
#define BABOL_OBS_HUB_HH

#include "interner.hh"
#include "metrics.hh"
#include "recorder.hh"
#include "span.hh"

namespace babol::obs {

/** Member index is packed into the top bits of every minted SpanId. */
constexpr unsigned kSpanMemberShift = 48;

/** The process-global label interner. */
Interner &interner();

/**
 * What one simulation records into: a trace ring, a private metrics
 * registry, and the ambient span. Span ids are minted in namespace
 * @p member.
 */
struct ExecContext
{
    explicit ExecContext(std::uint32_t member) : trace(interner())
    {
        trace.seedSpanIds(SpanId(member) << kSpanMemberShift);
    }

    ExecContext(const ExecContext &) = delete;
    ExecContext &operator=(const ExecContext &) = delete;

    TraceRecorder trace;
    MetricsRegistry metrics;
    SpanId current = kNoSpan; //!< ambient span (kNoSpan if none)
};

struct Hub
{
    /** RAII: installs @p span as @p ctx's ambient span for the current
     *  scope (synchronously-triggered work inherits it). */
    class ScopedCtx
    {
      public:
        ScopedCtx(ExecContext &ctx, SpanId span)
            : ctx_(ctx), prev_(ctx.current)
        {
            ctx_.current = span;
        }
        ~ScopedCtx() { ctx_.current = prev_; }

        ScopedCtx(const ScopedCtx &) = delete;
        ScopedCtx &operator=(const ScopedCtx &) = delete;

      private:
        ExecContext &ctx_;
        SpanId prev_;
    };
};

} // namespace babol::obs

#endif // BABOL_OBS_HUB_HH
