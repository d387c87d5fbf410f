/**
 * @file
 * NVMe-style multi-queue host front end.
 *
 * Replaces the direct-call generator path with the queueing model a
 * production host interface presents: N paired submission/completion
 * queues resident in the staging DRAM, doorbell registers, per-queue
 * arbitration (round-robin or weighted), and an interrupt-coalescing
 * model (threshold + timer) on the completion side. Everything runs on
 * the device's event queue, so runs stay byte-deterministic.
 *
 * The model keeps NVMe's essential mechanics without the full spec:
 *
 *  - SQEs are 64 B and CQEs 16 B, serialized into the DRAM model at the
 *    ring slots; fetches and completion posts charge the DRAM port's
 *    transfer time, so queue traffic competes for modeled bandwidth.
 *  - A submission queue holds at most (entries - 1) commands; the host
 *    learns of freed slots only through the SQ-head field carried in
 *    each CQE, exactly the NVMe flow-control loop.
 *  - The device fetches commands only when the HIC can accept more work
 *    (Hic::canAccept), so host queues back up when the device is the
 *    bottleneck — the contended regime the paper never measured.
 *
 * Completion-side commands carry a tenant id; the root span of every
 * command is recorded on a per-tenant track (or the queue's track when
 * untenanted), so Perfetto traces show per-tenant timelines.
 */

#ifndef BABOL_HOST_NVME_NVME_HH
#define BABOL_HOST_NVME_NVME_HH

#include <array>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "host/hic.hh"

namespace babol::host::nvme {

/** One host command, the model's view of an NVMe read/write SQE. */
struct NvmeCommand
{
    bool write = false;
    std::uint64_t slba = 0;    //!< first sector
    std::uint32_t sectors = 1; //!< length in sectors
    std::uint64_t prp = 0;     //!< host data buffer in staging DRAM
    std::uint32_t tenant = kNoTenant;

    static constexpr std::uint32_t kNoTenant = ~std::uint32_t(0);
};

/** Shape of one submission/completion queue pair. */
struct QueuePairConfig
{
    std::uint32_t sqEntries = 64; //!< capacity is sqEntries - 1
    std::uint32_t cqEntries = 64;

    /** Weighted-arbitration credit (ignored under round-robin). */
    std::uint32_t weight = 1;
};

struct NvmeConfig
{
    std::uint32_t queuePairs = 1;

    /** Template for every queue pair (weights overridable per queue). */
    QueuePairConfig qp;

    /** Per-queue weights; empty = qp.weight everywhere. */
    std::vector<std::uint32_t> weights;

    enum class Arbitration { RoundRobin, Weighted };
    Arbitration arb = Arbitration::RoundRobin;

    /** Commands the device keeps in flight toward the HIC across all
     *  queues (the device-side execution window). */
    std::uint32_t maxInflight = 64;

    /** DRAM address where the queue rings live (SQs then CQs, packed). */
    std::uint64_t dramBase = 0;

    /** Posted-MMIO delay of a doorbell write reaching the device. */
    Tick doorbellLatency = 100 * ticks::perNs;

    /** Completion-side interrupt coalescing: raise the interrupt when
     *  this many CQEs are pending, or when the timer expires since the
     *  first un-notified CQE — whichever comes first. */
    std::uint32_t coalesceThreshold = 4;
    Tick coalesceTimer = 20 * ticks::perUs;
};

/**
 * The device-plus-driver model of the queueing front end. Host-side
 * calls (trySubmit, the CQ drain) and device-side machinery (arbiter,
 * fetch, CQE post, interrupts) run on the same event queue, with the
 * doorbell/interrupt latencies modeling the boundary.
 */
class NvmeFrontEnd : public SimObject
{
  public:
    using CompletionFn = std::function<void(bool ok)>;

    /** (tick, queue, new tail/head, isSubmissionQueue) — test hook. */
    using DoorbellHook =
        std::function<void(Tick, std::uint32_t, std::uint32_t, bool)>;

    NvmeFrontEnd(EventQueue &eq, const std::string &name, Hic &hic,
                 NvmeConfig cfg = {});

    std::uint32_t queuePairs() const { return cfg_.queuePairs; }
    const NvmeConfig &config() const { return cfg_; }
    Hic &hic() { return hic_; }

    /** Submit round-robin across every queue (tenant clients use this
     *  to stripe; pass a real qid to pin a stream to one queue). */
    static constexpr std::uint32_t kAnyQueue = ~std::uint32_t(0);

    /** True when queue @p qid cannot take another command right now. */
    bool sqFull(std::uint32_t qid) const;

    /**
     * Host-side submission: serialize the SQE into the DRAM ring, ring
     * the SQ tail doorbell, and invoke @p cb when the host processes
     * the command's CQE. Returns false (without side effects) when the
     * submission queue is full — the caller must back off and retry,
     * e.g. via onSqSpace().
     */
    bool trySubmit(std::uint32_t qid, const NvmeCommand &cmd,
                   CompletionFn cb);

    /**
     * Run @p fn once, the next time the host's CQ drain frees slots in
     * queue @p qid (any queue when kAnyQueue). Waiters fire in
     * registration order — per-queue FIFO fairness for blocked
     * submitters.
     */
    void onSqSpace(std::uint32_t qid, std::function<void()> fn);

    /** Total DRAM bytes the rings occupy from cfg.dramBase. */
    std::uint64_t ringBytes() const;

    void setDoorbellHook(DoorbellHook hook) { doorbellHook_ = std::move(hook); }

    // --- Stats ---
    std::uint64_t submitted() const { return submitted_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t sqDoorbells() const { return sqDoorbells_; }
    std::uint64_t cqDoorbells() const { return cqDoorbells_; }
    std::uint64_t interrupts() const { return interrupts_; }
    std::uint64_t fetched() const { return fetched_; }
    std::uint64_t sqFullRejects() const { return sqFullRejects_; }
    std::uint64_t hicStalls() const { return hicStalls_; }
    std::uint64_t maxCoalesced() const { return maxCoalesced_; }
    std::uint32_t inflight() const { return inflight_; }

    static constexpr std::uint32_t kSqeBytes = 64;
    static constexpr std::uint32_t kCqeBytes = 16;

  private:
    /** Host-side record of one command awaiting its CQE. */
    struct PendingCmd
    {
        CompletionFn cb;
        obs::SpanId span = obs::kNoSpan;
    };

    struct QueuePair
    {
        QueuePairConfig cfg;
        std::uint64_t sqBase = 0; //!< DRAM address of the SQ ring
        std::uint64_t cqBase = 0;

        // Host-side view.
        std::uint32_t sqTailHost = 0;
        std::uint32_t sqHeadHost = 0; //!< learned from CQE sqHead fields
        std::uint32_t cqHeadHost = 0;
        std::uint16_t nextCid = 0;
        std::unordered_map<std::uint16_t, PendingCmd> pending;
        std::deque<std::function<void()>> sqWaiters;

        // Device-side view.
        std::uint32_t sqTailDev = 0; //!< last doorbell value seen
        std::uint32_t sqHeadDev = 0; //!< next slot to fetch
        std::uint32_t cqTailDev = 0;
        std::uint32_t credits = 0;   //!< weighted-arbitration budget

        // Interrupt coalescing.
        std::uint32_t unNotifiedCqes = 0;
        EventHandle coalesceTimer;
        bool irqPending = false;
    };

    std::uint32_t sqeSlots(const QueuePair &q) const
    {
        return q.cfg.sqEntries;
    }

    /** Commands the device has yet to fetch from @p q. */
    std::uint32_t devPending(const QueuePair &q) const;

    void onSqDoorbell(std::uint32_t qid, std::uint32_t tail);
    void pump();
    bool arbitrate(std::uint32_t &qid);
    void fetchOne(std::uint32_t qid);
    void execute(std::uint32_t qid,
                 const std::array<std::uint8_t, kSqeBytes> &sqe);
    void postCqe(std::uint32_t qid, std::uint16_t cid, bool ok);
    void raiseInterrupt(std::uint32_t qid);
    void hostDrainCq(std::uint32_t qid);
    void wakeSqWaiters(std::uint32_t qid);

    std::uint32_t tenantTrack(std::uint32_t tenant, std::uint32_t qid);

    Hic &hic_;
    NvmeConfig cfg_;
    std::vector<QueuePair> queues_;
    std::uint32_t arbCursor_ = 0;
    std::uint32_t submitCursor_ = 0; //!< kAnyQueue striping
    std::uint32_t inflight_ = 0;
    bool pumpScheduled_ = false;

    std::deque<std::function<void()>> anySqWaiters_;
    DoorbellHook doorbellHook_;

    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t sqDoorbells_ = 0;
    std::uint64_t cqDoorbells_ = 0;
    std::uint64_t interrupts_ = 0;
    std::uint64_t fetched_ = 0;
    std::uint64_t sqFullRejects_ = 0;
    std::uint64_t hicStalls_ = 0;
    std::uint64_t maxCoalesced_ = 0;

    std::uint32_t lblRead_ = 0;
    std::uint32_t lblWrite_ = 0;
    std::vector<std::uint32_t> queueTracks_;
    std::unordered_map<std::uint32_t, std::uint32_t> tenantTracks_;

    /** Last member: deregisters before the stats it references die. */
    obs::MetricsGroup metrics_;
};

} // namespace babol::host::nvme

#endif // BABOL_HOST_NVME_NVME_HH
