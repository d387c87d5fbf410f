#include "event_queue.hh"

#include <bit>

namespace babol {

EventQueue::EventQueue(SimContext &ctx)
    : ctx_(&ctx), wheelHead_(kWheelBuckets, kNilIndex),
      wheelBitmap_(kWheelBuckets / 64)
{}

void
EventQueue::growPool()
{
    babol_assert(chunks_.size() < (std::size_t(kNilIndex) >> kChunkShift),
                 "event record pool exhausted");
    const std::uint32_t base =
        static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
    chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
    Record *chunk = chunks_.back().get();
    for (std::uint32_t i = 0; i < kChunkSize; ++i)
        chunk[i].next = i + 1 < kChunkSize ? base + i + 1 : freeHead_;
    freeHead_ = base;
}

void
EventQueue::releaseRecord(std::uint32_t idx)
{
    Record &rec = record(idx);
    if (rec.state == Record::Cancelled)
        --cancelledPending_;
    rec.fn.reset();
    rec.state = Record::Free;
    ++rec.gen; // invalidates every outstanding handle to this record
    rec.next = freeHead_;
    freeHead_ = idx;
    --poolLive_;
}

/** First occupied wheel slot in [from, to), or -1. */
std::int64_t
EventQueue::scanWheelRange(std::uint32_t from, std::uint32_t to) const
{
    if (from >= to)
        return -1;
    std::uint32_t w = from >> 6;
    const std::uint32_t lastWord = (to - 1) >> 6;
    std::uint64_t bits = wheelBitmap_[w] & (~std::uint64_t(0) << (from & 63));
    for (;;) {
        if (w == lastWord) {
            const std::uint32_t tail = to - (w << 6);
            if (tail < 64)
                bits &= (std::uint64_t(1) << tail) - 1;
        }
        if (bits)
            return (std::int64_t(w) << 6) + std::countr_zero(bits);
        if (w == lastWord)
            return -1;
        bits = wheelBitmap_[++w];
    }
}

/**
 * Ensure the ready heap holds the globally-earliest pending entries by
 * merging in the next occupied wheel bucket and/or the overflow entries
 * that land in (or before) it. @return false when fully drained.
 */
bool
EventQueue::primeReady()
{
    if (!ready_.empty())
        return true;
    if (wheelCount_ == 0 && overflow_.empty())
        return false;

    constexpr std::uint64_t kNoBucket = ~std::uint64_t(0);

    std::uint64_t wheelBucket = kNoBucket;
    if (wheelCount_ > 0) {
        const std::uint32_t start =
            static_cast<std::uint32_t>(nextBucket_) & (kWheelBuckets - 1);
        std::int64_t slot = scanWheelRange(start, kWheelBuckets);
        std::uint64_t dist;
        if (slot >= 0) {
            dist = static_cast<std::uint64_t>(slot) - start;
        } else {
            slot = scanWheelRange(0, start);
            babol_assert(slot >= 0, "wheel count / bitmap desync");
            dist = static_cast<std::uint64_t>(slot) + kWheelBuckets - start;
        }
        wheelBucket = nextBucket_ + dist;
    }

    const std::uint64_t farBucket =
        overflow_.empty() ? kNoBucket : overflow_.front().when >> kBucketShift;
    const std::uint64_t target = std::min(wheelBucket, farBucket);
    nextBucket_ = target + 1;

    if (wheelBucket == target) {
        const std::uint32_t slot =
            static_cast<std::uint32_t>(target) & (kWheelBuckets - 1);
        std::uint32_t idx = wheelHead_[slot];
        wheelHead_[slot] = kNilIndex;
        wheelBitmap_[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
        while (idx != kNilIndex) {
            Record &rec = record(idx);
            const std::uint32_t nxt = rec.next;
            rec.next = kNilIndex;
            ready_.push_back(Entry{rec.when, rec.seq, idx, rec.gen});
            std::push_heap(ready_.begin(), ready_.end(), EntryLater{});
            --wheelCount_;
            idx = nxt;
        }
    }

    while (!overflow_.empty() &&
           (overflow_.front().when >> kBucketShift) <= target) {
        std::pop_heap(overflow_.begin(), overflow_.end(), EntryLater{});
        ready_.push_back(overflow_.back());
        overflow_.pop_back();
        std::push_heap(ready_.begin(), ready_.end(), EntryLater{});
    }

    babol_assert(!ready_.empty(), "primed an empty bucket");
    return true;
}

void
EventQueue::popReadyTop()
{
    std::pop_heap(ready_.begin(), ready_.end(), EntryLater{});
    ready_.pop_back();
}

/** Head of the merged order after dropping lazily-cancelled entries. */
const EventQueue::Entry *
EventQueue::peekLive()
{
    for (;;) {
        if (ready_.empty() && !primeReady())
            return nullptr;
        const Entry &e = ready_.front();
        const Record &rec = record(e.idx);
        babol_assert(rec.gen == e.gen, "event entry / record desync");
        if (rec.state != Record::Cancelled)
            return &ready_.front();
        const std::uint32_t idx = e.idx;
        popReadyTop();
        releaseRecord(idx);
    }
}

void
EventQueue::fire(const Entry &head)
{
    const Entry e = head; // head lives in ready_, which the pop reorders
    popReadyTop();

    Record &rec = record(e.idx);
    babol_assert(e.when >= now_, "event queue time went backwards");
    now_ = e.when;
    rec.state = Record::Firing; // handles go inert before the callback runs
    --livePending_;
    ++firedCount_;
    if (fireHook_)
        fireHook_(e.when, e.seq);
    rec.fn();
    // The pool only grows during the callback (chunks are stable and the
    // firing record is not on the free list), so rec is still valid here.
    releaseRecord(e.idx);
}

bool
EventQueue::step()
{
    const Entry *top = peekLive();
    if (!top)
        return false;
    fire(*top);
    return true;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t fired = 0;
    while (const Entry *top = peekLive()) {
        if (top->when > limit) {
            // Advance time to the window edge so that callers composing
            // bounded runs observe a consistent clock.
            now_ = limit;
            break;
        }
        fire(*top);
        ++fired;
    }
    return fired;
}

void
EventQueue::maybeCompact()
{
    // Lazily-cancelled records hold a pool slot until their tick comes
    // up; once they outnumber live events (and there are enough of them
    // to matter), sweep them out of the wheel and both heaps.
    if (cancelledPending_ >= 64 && cancelledPending_ > livePending_)
        compact();
}

void
EventQueue::compact()
{
    statCompact_.inc();

    auto sweepHeap = [this](std::vector<Entry> &heap) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < heap.size(); ++i) {
            if (record(heap[i].idx).state == Record::Cancelled)
                releaseRecord(heap[i].idx);
            else
                heap[kept++] = heap[i];
        }
        heap.resize(kept);
        std::make_heap(heap.begin(), heap.end(), EntryLater{});
    };
    sweepHeap(ready_);
    sweepHeap(overflow_);

    for (std::uint32_t slot = 0;
         wheelCount_ > 0 && slot < kWheelBuckets; ++slot) {
        if (wheelHead_[slot] == kNilIndex)
            continue;
        std::uint32_t *link = &wheelHead_[slot];
        while (*link != kNilIndex) {
            const std::uint32_t idx = *link;
            Record &rec = record(idx);
            if (rec.state == Record::Cancelled) {
                *link = rec.next; // unlink before the free list reuses next
                rec.next = kNilIndex;
                releaseRecord(idx);
                --wheelCount_;
            } else {
                link = &rec.next;
            }
        }
        if (wheelHead_[slot] == kNilIndex)
            wheelBitmap_[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
    }
}

EventQueue::PoolStats
EventQueue::poolStats() const
{
    PoolStats s;
    s.poolCapacity = chunks_.size() * kChunkSize;
    s.poolLive = poolLive_;
    s.poolHighWater = poolHighWater_;
    s.inlineCallbacks = statInlineCb_.value();
    s.outlineCallbacks = statOutlineCb_.value();
    s.wheelInserts = statWheel_.value();
    s.heapInserts = statHeap_.value();
    s.readyInserts = statReady_.value();
    s.compactions = statCompact_.value();
    s.cancelledPending = cancelledPending_;
    return s;
}

} // namespace babol
