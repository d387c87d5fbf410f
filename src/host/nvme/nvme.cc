#include "nvme.hh"

#include "obs/sim_context.hh"

namespace babol::host::nvme {

namespace {

void
putLe(std::uint8_t *p, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
getLe(const std::uint8_t *p, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

NvmeFrontEnd::NvmeFrontEnd(EventQueue &eq, const std::string &name,
                           Hic &hic, NvmeConfig cfg)
    : SimObject(eq, name), hic_(hic), cfg_(cfg),
      metrics_(eq.context().metrics, name)
{
    babol_assert(cfg_.queuePairs >= 1 && cfg_.queuePairs <= 4096,
                 "1..4096 queue pairs supported, got %u", cfg_.queuePairs);
    babol_assert(cfg_.maxInflight >= 1, "device window must be >= 1");
    babol_assert(cfg_.weights.empty() ||
                     cfg_.weights.size() == cfg_.queuePairs,
                 "weights must name every queue (%u given, %u queues)",
                 static_cast<unsigned>(cfg_.weights.size()),
                 cfg_.queuePairs);

    lblRead_ = obs::interner().intern("nvme.read");
    lblWrite_ = obs::interner().intern("nvme.write");

    std::uint64_t addr = cfg_.dramBase;
    for (std::uint32_t qid = 0; qid < cfg_.queuePairs; ++qid) {
        QueuePair q;
        q.cfg = cfg_.qp;
        if (!cfg_.weights.empty())
            q.cfg.weight = cfg_.weights[qid];
        babol_assert(q.cfg.sqEntries >= 2 && q.cfg.cqEntries >= 2,
                     "queues need at least 2 entries");
        babol_assert(q.cfg.cqEntries >= q.cfg.sqEntries,
                     "CQ %u smaller than SQ %u would overflow under load",
                     q.cfg.cqEntries, q.cfg.sqEntries);
        babol_assert(q.cfg.weight >= 1, "queue weight must be >= 1");
        q.sqBase = addr;
        addr += std::uint64_t(q.cfg.sqEntries) * kSqeBytes;
        q.cqBase = addr;
        addr += std::uint64_t(q.cfg.cqEntries) * kCqeBytes;
        q.credits = q.cfg.weight;
        queues_.push_back(std::move(q));
        queueTracks_.push_back(
            obs::interner().intern(strfmt("%s.q%u", name.c_str(), qid)));
    }
    babol_assert(addr <= hic_.dram().size(),
                 "queue rings [%llu, %llu) beyond DRAM end %llu",
                 static_cast<unsigned long long>(cfg_.dramBase),
                 static_cast<unsigned long long>(addr),
                 static_cast<unsigned long long>(hic_.dram().size()));

    metrics_.value("submitted", [this] { return submitted_; });
    metrics_.value("completed", [this] { return completed_; });
    metrics_.value("fetched", [this] { return fetched_; });
    metrics_.value("interrupts", [this] { return interrupts_; });
    metrics_.value("sq_doorbells", [this] { return sqDoorbells_; });
    metrics_.value("cq_doorbells", [this] { return cqDoorbells_; });
    metrics_.value("sq_full_rejects", [this] { return sqFullRejects_; });
    metrics_.value("hic_stalls", [this] { return hicStalls_; });
    metrics_.value("max_coalesced", [this] { return maxCoalesced_; });
}

std::uint64_t
NvmeFrontEnd::ringBytes() const
{
    std::uint64_t bytes = 0;
    for (const QueuePair &q : queues_) {
        bytes += std::uint64_t(q.cfg.sqEntries) * kSqeBytes +
                 std::uint64_t(q.cfg.cqEntries) * kCqeBytes;
    }
    return bytes;
}

std::uint32_t
NvmeFrontEnd::devPending(const QueuePair &q) const
{
    return (q.sqTailDev + q.cfg.sqEntries - q.sqHeadDev) % q.cfg.sqEntries;
}

bool
NvmeFrontEnd::sqFull(std::uint32_t qid) const
{
    if (qid == kAnyQueue) {
        for (const QueuePair &q : queues_) {
            if ((q.sqTailHost + 1) % q.cfg.sqEntries != q.sqHeadHost)
                return false;
        }
        return true;
    }
    babol_assert(qid < queues_.size(), "queue %u out of range", qid);
    const QueuePair &q = queues_[qid];
    return (q.sqTailHost + 1) % q.cfg.sqEntries == q.sqHeadHost;
}

std::uint32_t
NvmeFrontEnd::tenantTrack(std::uint32_t tenant, std::uint32_t qid)
{
    if (tenant == NvmeCommand::kNoTenant)
        return queueTracks_[qid];
    auto it = tenantTracks_.find(tenant);
    if (it != tenantTracks_.end())
        return it->second;
    std::uint32_t track = obs::interner().intern(strfmt("tenant%u", tenant));
    tenantTracks_.emplace(tenant, track);
    return track;
}

bool
NvmeFrontEnd::trySubmit(std::uint32_t qid, const NvmeCommand &cmd,
                        CompletionFn cb)
{
    if (qid == kAnyQueue) {
        // Stripe: first queue with room, scanning from a rotating
        // cursor so load spreads evenly.
        for (std::uint32_t i = 0; i < queues_.size(); ++i) {
            std::uint32_t candidate =
                (submitCursor_ + i) % queues_.size();
            if (!sqFull(candidate)) {
                submitCursor_ = (candidate + 1) % queues_.size();
                return trySubmit(candidate, cmd, std::move(cb));
            }
        }
        ++sqFullRejects_;
        return false;
    }

    babol_assert(qid < queues_.size(), "queue %u out of range", qid);
    QueuePair &q = queues_[qid];
    if ((q.sqTailHost + 1) % q.cfg.sqEntries == q.sqHeadHost) {
        ++sqFullRejects_;
        return false;
    }

    const std::uint16_t cid = q.nextCid++;
    const std::uint32_t slot = q.sqTailHost;
    q.sqTailHost = (q.sqTailHost + 1) % q.cfg.sqEntries;

    // Serialize the SQE into the DRAM-resident ring.
    std::uint8_t sqe[kSqeBytes] = {};
    sqe[0] = cmd.write ? 1 : 2; // NVMe: 01h write, 02h read
    putLe(sqe + 2, cid, 2);
    putLe(sqe + 8, cmd.slba, 8);
    putLe(sqe + 16, cmd.sectors, 4);
    putLe(sqe + 24, cmd.prp, 8);
    putLe(sqe + 32, cmd.tenant, 4);
    hic_.dram().write(q.sqBase + std::uint64_t(slot) * kSqeBytes, sqe);

    PendingCmd pc;
    pc.cb = std::move(cb);
    pc.span = eq_.context().trace.beginSpan(
        tenantTrack(cmd.tenant, qid), cmd.write ? lblWrite_ : lblRead_,
        curTick(), eq_.context().current,
        (std::uint64_t(qid) << 48) |
            (std::uint64_t(cmd.tenant & 0xffff) << 32) |
            (cmd.slba & 0xffffffff));
    q.pending.emplace(cid, std::move(pc));
    ++submitted_;

    // Ring the SQ tail doorbell; the posted write lands after the MMIO
    // latency, at which point the device re-arbitrates.
    ++sqDoorbells_;
    if (doorbellHook_)
        doorbellHook_(curTick(), qid, q.sqTailHost, true);
    const std::uint32_t tail = q.sqTailHost;
    eq_.scheduleIn(cfg_.doorbellLatency,
                   [this, qid, tail] { onSqDoorbell(qid, tail); },
                   "nvme sq doorbell");
    return true;
}

void
NvmeFrontEnd::onSqSpace(std::uint32_t qid, std::function<void()> fn)
{
    if (qid == kAnyQueue) {
        anySqWaiters_.push_back(std::move(fn));
        return;
    }
    babol_assert(qid < queues_.size(), "queue %u out of range", qid);
    queues_[qid].sqWaiters.push_back(std::move(fn));
}

void
NvmeFrontEnd::onSqDoorbell(std::uint32_t qid, std::uint32_t tail)
{
    queues_[qid].sqTailDev = tail;
    pump();
}

bool
NvmeFrontEnd::arbitrate(std::uint32_t &qid)
{
    const std::uint32_t n = static_cast<std::uint32_t>(queues_.size());
    if (cfg_.arb == NvmeConfig::Arbitration::RoundRobin) {
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint32_t candidate = (arbCursor_ + i) % n;
            if (devPending(queues_[candidate]) > 0) {
                qid = candidate;
                arbCursor_ = (candidate + 1) % n;
                return true;
            }
        }
        return false;
    }

    // Weighted: spend per-queue credits in cursor order; when every
    // queue with work is out of credits, refill all budgets and take
    // another pass (so weights set the long-run grant ratio).
    for (int round = 0; round < 2; ++round) {
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint32_t candidate = (arbCursor_ + i) % n;
            QueuePair &q = queues_[candidate];
            if (devPending(q) == 0 || q.credits == 0)
                continue;
            --q.credits;
            qid = candidate;
            // Keep the cursor while this queue has credit left: a
            // weight-w queue gets up to w consecutive grants.
            arbCursor_ = q.credits > 0 ? candidate : (candidate + 1) % n;
            return true;
        }
        bool anyWork = false;
        for (QueuePair &q : queues_)
            anyWork = anyWork || devPending(q) > 0;
        if (!anyWork)
            return false;
        for (QueuePair &q : queues_)
            q.credits = q.cfg.weight;
    }
    return false;
}

void
NvmeFrontEnd::pump()
{
    const std::uint32_t hicCap = hic_.maxInflight();
    while (inflight_ < cfg_.maxInflight) {
        if (hicCap != 0 && inflight_ >= hicCap) {
            // Every fetched command is inside the HIC window until its
            // CQE posts, so bounding our window by the HIC's cap keeps
            // Hic::submit always legal.
            ++hicStalls_;
            return;
        }
        std::uint32_t qid = 0;
        if (!arbitrate(qid))
            return;
        fetchOne(qid);
    }
}

void
NvmeFrontEnd::fetchOne(std::uint32_t qid)
{
    QueuePair &q = queues_[qid];
    const std::uint32_t slot = q.sqHeadDev;
    q.sqHeadDev = (q.sqHeadDev + 1) % q.cfg.sqEntries;
    ++inflight_;
    ++fetched_;
    // The command fetch is a DMA of one SQE from the DRAM ring. The
    // bytes latch when the DMA starts: the head advance above may be
    // advertised (via another command's CQE) before the transfer-time
    // delay elapses, at which point the host is free to reuse the slot
    // — reading at completion time would see the new occupant.
    std::array<std::uint8_t, kSqeBytes> sqe;
    hic_.dram().read(q.sqBase + std::uint64_t(slot) * kSqeBytes, sqe);
    eq_.scheduleIn(hic_.dram().transferTime(kSqeBytes),
                   [this, qid, sqe] { execute(qid, sqe); },
                   "nvme sqe fetch");
}

void
NvmeFrontEnd::execute(std::uint32_t qid,
                      const std::array<std::uint8_t, kSqeBytes> &sqeArr)
{
    QueuePair &q = queues_[qid];
    const std::uint8_t *sqe = sqeArr.data();

    const bool write = sqe[0] == 1;
    const std::uint16_t cid = static_cast<std::uint16_t>(getLe(sqe + 2, 2));
    HostIo io;
    io.write = write;
    io.lba = getLe(sqe + 8, 8);
    io.sectors = static_cast<std::uint32_t>(getLe(sqe + 16, 4));
    io.dramAddr = getLe(sqe + 24, 8);

    io.onComplete = [this, qid, cid](bool ok) { postCqe(qid, cid, ok); };

    auto it = q.pending.find(cid);
    babol_assert(it != q.pending.end(),
                 "fetched cid %u with no host-side record", cid);
    obs::Hub::ScopedCtx ctx(eq_.context(), it->second.span);
    hic_.submit(std::move(io));
}

void
NvmeFrontEnd::postCqe(std::uint32_t qid, std::uint16_t cid, bool ok)
{
    // The completion post is a DMA of one CQE into the DRAM ring.
    eq_.scheduleIn(
        hic_.dram().transferTime(kCqeBytes),
        [this, qid, cid, ok] {
            QueuePair &q = queues_[qid];
            babol_assert((q.cqTailDev + 1) % q.cfg.cqEntries !=
                             q.cqHeadHost,
                         "CQ %u overflow", qid);
            std::uint8_t cqe[kCqeBytes] = {};
            putLe(cqe, cid, 2);
            // NVMe: the SQ head *at CQE creation time*. Completions can
            // land out of fetch order, so stamping an older fetch-time
            // head here could regress the host's view and wedge a full
            // queue forever; the current head is monotonic.
            putLe(cqe + 2, q.sqHeadDev, 2);
            cqe[4] = ok ? 0 : 1;
            hic_.dram().write(
                q.cqBase + std::uint64_t(q.cqTailDev) * kCqeBytes, cqe);
            q.cqTailDev = (q.cqTailDev + 1) % q.cfg.cqEntries;

            babol_assert(inflight_ > 0, "CQE with no inflight command");
            --inflight_;

            ++q.unNotifiedCqes;
            if (q.unNotifiedCqes >= cfg_.coalesceThreshold) {
                raiseInterrupt(qid);
            } else if (!q.irqPending && !q.coalesceTimer.pending()) {
                q.coalesceTimer = eq_.scheduleIn(
                    cfg_.coalesceTimer,
                    [this, qid] {
                        if (queues_[qid].unNotifiedCqes > 0)
                            raiseInterrupt(qid);
                    },
                    "nvme coalesce timer");
            }
            pump();
        },
        "nvme cqe post");
}

void
NvmeFrontEnd::raiseInterrupt(std::uint32_t qid)
{
    QueuePair &q = queues_[qid];
    if (q.irqPending)
        return;
    q.irqPending = true;
    q.coalesceTimer.cancel();
    ++interrupts_;
    eq_.scheduleIn(cfg_.doorbellLatency,
                   [this, qid] { hostDrainCq(qid); }, "nvme irq");
}

void
NvmeFrontEnd::hostDrainCq(std::uint32_t qid)
{
    QueuePair &q = queues_[qid];
    q.irqPending = false;

    std::uint64_t batch = 0;
    while (q.cqHeadHost != q.cqTailDev) {
        std::uint8_t cqe[kCqeBytes];
        hic_.dram().read(
            q.cqBase + std::uint64_t(q.cqHeadHost) * kCqeBytes, cqe);
        q.cqHeadHost = (q.cqHeadHost + 1) % q.cfg.cqEntries;

        const std::uint16_t cid =
            static_cast<std::uint16_t>(getLe(cqe, 2));
        q.sqHeadHost = static_cast<std::uint32_t>(getLe(cqe + 2, 2));
        const bool ok = cqe[4] == 0;

        auto it = q.pending.find(cid);
        babol_assert(it != q.pending.end(),
                     "CQE for unknown cid %u on queue %u", cid, qid);
        PendingCmd pc = std::move(it->second);
        q.pending.erase(it);

        eq_.context().trace.endSpan(pc.span, curTick());
        ++completed_;
        if (!ok)
            ++errors_;
        ++batch;
        if (pc.cb)
            pc.cb(ok);
    }
    if (batch > maxCoalesced_)
        maxCoalesced_ = batch;
    q.unNotifiedCqes = 0;

    // Ring the CQ head doorbell (the device needs no action beyond the
    // freed CQ slots, which cqHeadHost already published).
    ++cqDoorbells_;
    if (doorbellHook_)
        doorbellHook_(curTick(), qid, q.cqHeadHost, false);

    wakeSqWaiters(qid);
}

void
NvmeFrontEnd::wakeSqWaiters(std::uint32_t qid)
{
    // Wake every waiter: each retries and re-registers if still
    // blocked, so a waiter can never miss the slot another one
    // declined. Waiters registered during the wake run next time.
    std::deque<std::function<void()>> ready;
    ready.swap(queues_[qid].sqWaiters);
    std::deque<std::function<void()>> any;
    any.swap(anySqWaiters_);
    for (auto &fn : ready)
        fn();
    for (auto &fn : any)
        fn();
}

} // namespace babol::host::nvme
