/**
 * @file
 * The discrete-event kernel at the heart of the BABOL simulator.
 *
 * Every hardware and software actor in the reproduction — LUN busy timers,
 * bus segment completions, DMA transfers, CPU work items — is expressed as
 * an event scheduled on a single EventQueue. Events at the same tick fire
 * in scheduling order (FIFO by sequence number), which keeps runs fully
 * deterministic.
 *
 * The kernel is built for near-zero steady-state allocation:
 *
 *  - Event records live in a chunked pool and are recycled through a free
 *    list; a handle is a cheap {index, generation} pair, so cancellation
 *    is O(1) and a stale handle can never touch a recycled record.
 *  - Callbacks are stored in a small-buffer-optimized slot
 *    (InlineCallback): the common capture sizes in bus.cc / lun.cc /
 *    hic.cc / coro_runtime.hh fit inline and never allocate.
 *  - A near-future timing wheel (calendar-queue style) fronts a binary
 *    heap. Short delays — ONFI bus cycles, μFSM segment timing — hit an
 *    O(1) bucket push; far-future events (tPROG, tBERS) overflow into
 *    the heap. Buckets are merged through a tiny "ready" heap keyed by
 *    (when, seq), which preserves the exact global firing order the old
 *    single-heap kernel had.
 *
 * Pool and routing statistics are exported through the stats.hh Counter
 * machinery (see poolStats()).
 *
 * A queue is also the handle to its simulation's SimContext (trace
 * ring, metrics, auditor, power model, fault engine): every SimObject
 * already holds the queue, so context() is how it reaches them.
 */

#ifndef BABOL_SIM_EVENT_QUEUE_HH
#define BABOL_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "inline_callback.hh"
#include "logging.hh"
#include "stats.hh"
#include "types.hh"

namespace babol {

class EventQueue;
class SimContext;

/**
 * Handle to a scheduled event; allows cancellation. Default-constructed
 * handles are inert. Handles stay valid (but inert) after the event fires
 * or its record is recycled: the generation check makes stale use a no-op.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True when the event is still pending (not fired, not cancelled). */
    bool pending() const;

    /** Cancel the event if it is still pending. */
    void cancel();

    /** Scheduled firing time; kMaxTick when inert or no longer pending. */
    Tick when() const;

  private:
    friend class EventQueue;

    EventHandle(EventQueue *eq, std::uint32_t idx, std::uint32_t gen)
        : eq_(eq), idx_(idx), gen_(gen)
    {}

    EventQueue *eq_ = nullptr;
    std::uint32_t idx_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * A deterministic priority queue of timed callbacks.
 *
 * All simulated entities share one queue; the constructor of each
 * SimObject receives a reference. Time never moves backwards: scheduling
 * in the past is a panic (a simulator bug by definition).
 */
class EventQueue
{
  public:
    /** Bind the process default context. Defined beside SimContext
     *  (obs/sim_context.cc), so a default-constructed queue needs
     *  babol_obs at link time. */
    EventQueue();

    /** Bind @p ctx: everything this queue's objects trace, meter, audit
     *  and inject lands there. @p ctx must outlive the queue. */
    explicit EventQueue(SimContext &ctx);

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** The simulation context this queue belongs to. */
    SimContext &context() const { return *ctx_; }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p when. */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn, const char *what = "")
    {
        if (when < now_) {
            panic("scheduling event '%s' in the past (%llu < %llu)", what,
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
        }
        const std::uint32_t idx = allocRecord();
        Record &rec = record(idx);
        rec.when = when;
        rec.seq = nextSeq_++;
        rec.state = Record::Pending;
        if (rec.fn.emplace(std::forward<F>(fn)))
            statInlineCb_.inc();
        else
            statOutlineCb_.inc();
        ++scheduledCount_;
        ++livePending_;
        insertEntry(Entry{when, rec.seq, idx, rec.gen});
        return EventHandle(this, idx, rec.gen);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleIn(Tick delay, F &&fn, const char *what = "")
    {
        return schedule(now_ + delay, std::forward<F>(fn), what);
    }

    /** True when no runnable events remain. */
    bool empty() const { return livePending_ == 0; }

    /** Number of events scheduled and not cancelled. O(1) and exact. */
    std::size_t pendingCount() const { return livePending_; }

    /**
     * Run events until the queue drains or simulated time would exceed
     * @p limit (events at exactly @p limit still run).
     *
     * @return the number of events fired.
     */
    std::uint64_t run(Tick limit = kMaxTick);

    /** Fire at most one event. @return true if an event fired. */
    bool step();

    /** Total number of events ever scheduled (for stats/tests). */
    std::uint64_t scheduledCount() const { return scheduledCount_; }

    /** Total number of events ever fired. */
    std::uint64_t firedCount() const { return firedCount_; }

    /** Snapshot of the kernel's pool/routing statistics. */
    struct PoolStats
    {
        std::uint64_t poolCapacity = 0;   //!< records allocated in chunks
        std::uint64_t poolLive = 0;       //!< records currently checked out
        std::uint64_t poolHighWater = 0;  //!< max simultaneously live
        std::uint64_t inlineCallbacks = 0;
        std::uint64_t outlineCallbacks = 0; //!< capture too big: heap
        std::uint64_t wheelInserts = 0;
        std::uint64_t heapInserts = 0;    //!< beyond the wheel horizon
        std::uint64_t readyInserts = 0;   //!< into the already-drained window
        std::uint64_t compactions = 0;
        std::uint64_t cancelledPending = 0; //!< lazily-cancelled residue
    };

    PoolStats poolStats() const;

    /**
     * Test/trace hook invoked as (when, seq) for every fired event.
     * Used by the determinism regression tests to compare tick-for-tick
     * firing order across runs. Costs one predicted branch when unset.
     */
    void
    setFireHook(std::function<void(Tick, std::uint64_t)> hook)
    {
        fireHook_ = std::move(hook);
    }

  private:
    friend class EventHandle;

    struct Record
    {
        enum State : std::uint8_t { Free, Pending, Firing, Cancelled };

        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint32_t gen = 0;
        std::uint32_t next = kNilIndex; //!< free-list / bucket-list link
        State state = Free;
        InlineCallback fn;
    };

    /** A (when, seq, record) triple living in one of the two heaps. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t idx;
        std::uint32_t gen;
    };

    struct EntryLater
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::uint32_t kNilIndex = 0xFFFFFFFFu;
    static constexpr std::uint32_t kChunkShift = 8; //!< 256 records/chunk
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

    /** Wheel geometry: 8192 buckets of 4096 ticks (~4.1 ns) each give a
     *  ~33.6 µs horizon — bus cycles, DMA bursts and tR land in the
     *  wheel; tPROG/tBERS overflow into the far heap. */
    static constexpr std::uint32_t kBucketShift = 12;
    static constexpr Tick kBucketTicks = Tick(1) << kBucketShift;
    static constexpr std::uint32_t kWheelShift = 13;
    static constexpr std::uint32_t kWheelBuckets = 1u << kWheelShift;

    Record &
    record(std::uint32_t idx)
    {
        return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
    }

    const Record &
    record(std::uint32_t idx) const
    {
        return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
    }

    bool
    validIndex(std::uint32_t idx) const
    {
        return (idx >> kChunkShift) < chunks_.size();
    }

    std::uint32_t
    allocRecord()
    {
        if (freeHead_ == kNilIndex)
            growPool();
        const std::uint32_t idx = freeHead_;
        Record &rec = record(idx);
        freeHead_ = rec.next;
        rec.next = kNilIndex;
        ++poolLive_;
        if (poolLive_ > poolHighWater_)
            poolHighWater_ = poolLive_;
        return idx;
    }

    void releaseRecord(std::uint32_t idx);
    void growPool();

    /** Route a freshly scheduled entry to ready heap, wheel, or far heap. */
    void
    insertEntry(const Entry &e)
    {
        const std::uint64_t bucket = e.when >> kBucketShift;
        if (bucket < nextBucket_) {
            // Lands inside the already-drained window: merge straight
            // into the ready heap so it still fires in (when, seq) order.
            ready_.push_back(e);
            std::push_heap(ready_.begin(), ready_.end(), EntryLater{});
            statReady_.inc();
        } else if (bucket - nextBucket_ < kWheelBuckets) {
            const std::uint32_t slot =
                static_cast<std::uint32_t>(bucket) & (kWheelBuckets - 1);
            Record &rec = record(e.idx);
            rec.next = wheelHead_[slot];
            wheelHead_[slot] = e.idx;
            wheelBitmap_[slot >> 6] |= std::uint64_t(1) << (slot & 63);
            ++wheelCount_;
            statWheel_.inc();
        } else {
            overflow_.push_back(e);
            std::push_heap(overflow_.begin(), overflow_.end(), EntryLater{});
            statHeap_.inc();
        }
    }

    bool primeReady();
    std::int64_t scanWheelRange(std::uint32_t from, std::uint32_t to) const;
    const Entry *peekLive();
    /** Pop @p head (the live top of the ready heap) and run it. */
    void fire(const Entry &head);
    void popReadyTop();
    void maybeCompact();
    void compact();

    // --- Handle plumbing (generation-checked) ---

    bool
    handlePending(std::uint32_t idx, std::uint32_t gen) const
    {
        if (!validIndex(idx))
            return false;
        const Record &rec = record(idx);
        return rec.gen == gen && rec.state == Record::Pending;
    }

    Tick
    handleWhen(std::uint32_t idx, std::uint32_t gen) const
    {
        return handlePending(idx, gen) ? record(idx).when : kMaxTick;
    }

    void
    handleCancel(std::uint32_t idx, std::uint32_t gen)
    {
        if (!handlePending(idx, gen))
            return;
        Record &rec = record(idx);
        rec.state = Record::Cancelled;
        rec.fn.reset(); // free captured resources eagerly
        --livePending_;
        ++cancelledPending_;
        maybeCompact();
    }

    SimContext *ctx_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t scheduledCount_ = 0;
    std::uint64_t firedCount_ = 0;
    std::size_t livePending_ = 0;
    std::size_t cancelledPending_ = 0;

    // Record pool: chunked so records never move, free list threaded
    // through Record::next.
    std::vector<std::unique_ptr<Record[]>> chunks_;
    std::uint32_t freeHead_ = kNilIndex;
    std::uint64_t poolLive_ = 0;
    std::uint64_t poolHighWater_ = 0;

    // Timing wheel over bucket indices [nextBucket_, nextBucket_ + W).
    // All buckets before nextBucket_ have been merged into ready_.
    std::vector<std::uint32_t> wheelHead_;
    std::vector<std::uint64_t> wheelBitmap_;
    std::uint64_t nextBucket_ = 0;
    std::size_t wheelCount_ = 0;

    // Near merge heap (current window) and far overflow heap, both
    // ordered by (when, seq) via EntryLater.
    std::vector<Entry> ready_;
    std::vector<Entry> overflow_;

    Counter statInlineCb_{"eq.callback.inline"};
    Counter statOutlineCb_{"eq.callback.outline"};
    Counter statWheel_{"eq.insert.wheel"};
    Counter statHeap_{"eq.insert.heap"};
    Counter statReady_{"eq.insert.ready"};
    Counter statCompact_{"eq.compactions"};

    std::function<void(Tick, std::uint64_t)> fireHook_;
};

inline bool
EventHandle::pending() const
{
    return eq_ && eq_->handlePending(idx_, gen_);
}

inline void
EventHandle::cancel()
{
    if (eq_)
        eq_->handleCancel(idx_, gen_);
}

inline Tick
EventHandle::when() const
{
    return eq_ ? eq_->handleWhen(idx_, gen_) : kMaxTick;
}

} // namespace babol

#endif // BABOL_SIM_EVENT_QUEUE_HH
