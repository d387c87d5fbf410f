#include "ftl.hh"

#include <algorithm>

#include "obs/sim_context.hh"

namespace babol::ftl {

using core::FlashOpKind;
using core::FlashRequest;
using core::OpResult;

/**
 * Transient state of an in-progress mount scan. Each chip scans its
 * blocks independently (one outstanding OOB_READ per chip, so the scan
 * parallelises across channels exactly like host traffic); the
 * per-page results are merged only in finishMount(), which makes the
 * rebuilt state independent of completion order.
 */
struct PageFtl::MountScan
{
    Callback cb;
    std::vector<std::uint32_t> block; //!< per-chip block cursor
    std::vector<std::uint32_t> page;  //!< per-chip page cursor
    std::uint32_t chipsActive = 0;

    std::vector<std::uint64_t> bestSeq; //!< per LPN; 0 = never seen
    std::vector<std::uint64_t> bestPpa;
    /** seq of each decoded record, addressed [chip][block][page]. */
    std::vector<std::vector<std::vector<std::uint64_t>>> pageSeq;
    /** Grown defects recovered from OOB journal entries. */
    std::vector<std::vector<std::uint8_t>> defect;
    /** Max erase count seen in erase-journal entries, [chip][block]. */
    std::vector<std::vector<std::uint32_t>> eraseJ;
    std::uint64_t maxSeq = 0;
};

PageFtl::~PageFtl() = default;

PageFtl::PageFtl(EventQueue &eq, const std::string &name,
                 core::FlashBackend &backend, FtlConfig cfg)
    : SimObject(eq, name),
      backend_(backend),
      cfg_(cfg),
      pageBytes_(backend.backendGeometry().pageDataBytes),
      pagesPerBlock_(backend.backendGeometry().pagesPerBlock),
      oobBytes_(backend.backendGeometry().pageOobBytes),
      metrics_(eq.context().metrics, name)
{
    obsTrack_ = obs::interner().intern(name);
    lblRead_ = obs::interner().intern("ftl.read");
    lblWrite_ = obs::interner().intern("ftl.write");
    lblMount_ = obs::interner().intern("ftl.mount");
    metrics_.value("host_reads", [this] { return hostReads_; });
    metrics_.value("host_writes", [this] { return hostWrites_; });
    metrics_.value("gc_runs", [this] { return gcRuns_; });
    metrics_.value("gc_page_moves", [this] { return gcPageMoves_; });
    metrics_.value("wl_runs", [this] { return wlRuns_; });
    metrics_.value("wl_page_moves", [this] { return wlPageMoves_; });
    metrics_.value("erases", [this] { return erases_; });
    metrics_.value("blocks_retired", [this] { return retired_; });
    metrics_.value("mount_pages_scanned",
                   [this] { return mountPagesScanned_; });
    metrics_.value("mount_torn_pages", [this] { return mountTornPages_; });
    metrics_.value("wb_hits", [this] { return wbHits_; });
    metrics_.value("wb_flushes", [this] { return wbFlushes_; });
    metrics_.value("read_failures", [this] { return readFailures_; });
    metrics_.value("refresh_moves", [this] { return refreshes_; });
    // The reliability-campaign gate: a read acked with uncorrectable
    // data that nothing could rebuild.
    metrics_.value("reliability.data-loss", [this] { return dataLoss_; });

    const std::uint32_t chips = backend_.backendChipCount();
    babol_assert(cfg_.blocksPerChip <=
                     backend_.backendGeometry().blocksPerLun(),
                 "FTL wants %u blocks/chip but the package has %u",
                 cfg_.blocksPerChip,
                 backend_.backendGeometry().blocksPerLun());
    babol_assert(oobBytes_ >= kOobCopies * kOobRecordBytes,
                 "OOB tail too small for the FTL's metadata record");

    auto usable = static_cast<std::uint32_t>(
        cfg_.blocksPerChip * (1.0 - cfg_.overprovision));
    babol_assert(usable >= 1, "over-provisioning leaves no usable blocks");
    logicalPages_ = static_cast<std::uint64_t>(chips) * usable *
                    pagesPerBlock_;
    map_.assign(logicalPages_, kUnmapped);
    mapSeq_.assign(logicalPages_, 0);

    chips_.resize(chips);
    for (auto &chip : chips_) {
        chip.blocks.resize(cfg_.blocksPerChip);
        for (std::uint32_t b = 0; b < cfg_.blocksPerChip; ++b) {
            chip.blocks[b].pageLpn.assign(pagesPerBlock_, kUnmapped);
            chip.freeBlocks.push_back(b);
        }
    }

    // DRAM layout, top down: one move-staging page per chip (GC, WL and
    // the mount scan each stage through their chip's page so concurrent
    // background moves cannot clobber each other), then the write
    // buffer, then the reliability staging slots (refresh moves, patrol
    // reads, RAIN parity/rebuild). Everything below is the host's.
    const std::uint64_t reserve =
        static_cast<std::uint64_t>(pageBytes_) *
        (chips + cfg_.writeBufferPages + cfg_.reliabilityScratchPages);
    babol_assert(backend_.backendDram().size() >= reserve,
                 "DRAM too small for the FTL staging regions");
    gcScratchAddr_ = backend_.backendDram().size() -
                     static_cast<std::uint64_t>(pageBytes_) * chips;
    wbBase_ = gcScratchAddr_ -
              static_cast<std::uint64_t>(pageBytes_) * cfg_.writeBufferPages;
    wbSlots_.resize(cfg_.writeBufferPages);
    reliabilityScratchBase_ =
        wbBase_ -
        static_cast<std::uint64_t>(pageBytes_) * cfg_.reliabilityScratchPages;
}

std::uint64_t
PageFtl::packPpa(const Ppa &p)
{
    return (static_cast<std::uint64_t>(p.chip) << 40) |
           (static_cast<std::uint64_t>(p.block) << 20) | p.page;
}

Ppa
PageFtl::unpackPpa(std::uint64_t packed)
{
    Ppa p;
    p.chip = static_cast<std::uint32_t>(packed >> 40);
    p.block = static_cast<std::uint32_t>((packed >> 20) & 0xFFFFF);
    p.page = static_cast<std::uint32_t>(packed & 0xFFFFF);
    return p;
}

bool
PageFtl::isMapped(std::uint64_t lpn) const
{
    if (lpn >= map_.size())
        return false;
    if (map_[lpn] != kUnmapped)
        return true;
    for (const BufferSlot &s : wbSlots_)
        if (s.lpn == lpn)
            return true;
    return false;
}

std::vector<GrownDefect>
PageFtl::exportGrownDefects() const
{
    std::vector<GrownDefect> table;
    for (std::uint32_t c = 0; c < chips_.size(); ++c) {
        for (std::uint32_t b = 0; b < chips_[c].blocks.size(); ++b) {
            if (chips_[c].blocks[b].bad)
                table.push_back({c, b});
        }
    }
    return table;
}

std::uint32_t
PageFtl::maxEraseCount(std::uint32_t chip) const
{
    std::uint32_t most = 0;
    for (const BlockInfo &bi : chips_[chip].blocks)
        most = std::max(most, bi.eraseCount);
    return most;
}

std::uint32_t
PageFtl::minFreeEraseCount(std::uint32_t chip) const
{
    std::uint32_t least = ~0u;
    for (std::uint32_t b : chips_[chip].freeBlocks)
        least = std::min(least, chips_[chip].blocks[b].eraseCount);
    return least;
}

std::uint32_t
PageFtl::wearSpread(std::uint32_t chip) const
{
    std::uint32_t most = 0;
    std::uint32_t least = ~0u;
    for (const BlockInfo &bi : chips_[chip].blocks) {
        if (bi.bad)
            continue;
        most = std::max(most, bi.eraseCount);
        least = std::min(least, bi.eraseCount);
    }
    return least == ~0u ? 0 : most - least;
}

// ---------------------------------------------------------------------
// Mount: rebuild everything from the OOB records.
// ---------------------------------------------------------------------

void
PageFtl::mount(Callback cb)
{
    babol_assert(!mountScan_, "mount already in progress");
    const auto chips = static_cast<std::uint32_t>(chips_.size());

    // Reset to pristine: whatever state this object accumulated is
    // discarded — flash is the only source of truth.
    std::fill(map_.begin(), map_.end(), kUnmapped);
    std::fill(mapSeq_.begin(), mapSeq_.end(), 0);
    for (auto &chip : chips_) {
        chip = ChipState{};
        chip.blocks.resize(cfg_.blocksPerChip);
        for (std::uint32_t b = 0; b < cfg_.blocksPerChip; ++b)
            chip.blocks[b].pageLpn.assign(pagesPerBlock_, kUnmapped);
    }

    mountScan_ = std::make_unique<MountScan>();
    MountScan &ms = *mountScan_;
    ms.cb = std::move(cb);
    ms.block.assign(chips, 0);
    ms.page.assign(chips, 0);
    ms.chipsActive = chips;
    ms.bestSeq.assign(logicalPages_, 0);
    ms.bestPpa.assign(logicalPages_, 0);
    ms.pageSeq.assign(
        chips, std::vector<std::vector<std::uint64_t>>(
                   cfg_.blocksPerChip,
                   std::vector<std::uint64_t>(pagesPerBlock_, 0)));
    ms.defect.assign(chips,
                     std::vector<std::uint8_t>(cfg_.blocksPerChip, 0));
    ms.eraseJ.assign(chips,
                     std::vector<std::uint32_t>(cfg_.blocksPerChip, 0));

    for (std::uint32_t c = 0; c < chips; ++c)
        mountScanNext(c);
}

void
PageFtl::mountScanNext(std::uint32_t chip)
{
    MountScan &ms = *mountScan_;
    if (ms.block[chip] >= cfg_.blocksPerChip) {
        if (--ms.chipsActive == 0)
            finishMount();
        return;
    }
    const std::uint32_t b = ms.block[chip];
    const std::uint32_t p = ms.page[chip];
    const std::uint64_t scratch =
        gcScratchAddr_ + static_cast<std::uint64_t>(chip) * pageBytes_;

    const obs::SpanId span = eq_.context().trace.beginSpan(
        obsTrack_, lblMount_, curTick(), eq_.context().current, chip);

    FlashRequest req;
    req.kind = FlashOpKind::OobRead;
    req.chip = chip;
    req.row = {0, b, p};
    req.dramAddr = scratch;
    req.ctx.span = span;
    req.onComplete = [this, chip, b, p, scratch, span](OpResult r) {
        eq_.context().trace.endSpan(span, r.doneTick);
        ++mountPagesScanned_;
        MountScan &ms = *mountScan_;

        std::vector<std::uint8_t> tail(oobBytes_);
        backend_.backendDram().read(scratch, tail);

        if (oobErased(tail)) {
            // Unprogrammed page: the block's write frontier. Nothing
            // past it can be programmed (NOP=1, in-order), so move on.
            ++ms.block[chip];
            ms.page[chip] = 0;
        } else {
            BlockInfo &bi = chips_[chip].blocks[b];
            bi.written = p + 1;
            if (auto rec = decodeOob(tail)) {
                ms.maxSeq = std::max(ms.maxSeq, rec->seq);
                ms.pageSeq[chip][b][p] = rec->seq;
                // RAIN parity pages never enter the L2P map: their lpn
                // field is a stripe id, not a logical address. The page
                // stays dead weight until its block is reclaimed (the
                // stripe map itself is volatile by design).
                if (rec->state != OobState::RainParity &&
                    rec->lpn < logicalPages_) {
                    bi.pageLpn[p] = rec->lpn;
                    // Highest seq wins. Equal seqs only happen when a
                    // GC/WL move duplicated a copy and the crash landed
                    // before the source was erased — the bytes are
                    // identical, so any deterministic tie-break works.
                    const std::uint64_t ppa = packPpa({chip, b, p});
                    if (rec->seq > ms.bestSeq[rec->lpn] ||
                        (rec->seq == ms.bestSeq[rec->lpn] &&
                         ms.bestSeq[rec->lpn] != 0 &&
                         ppa > ms.bestPpa[rec->lpn])) {
                        ms.bestSeq[rec->lpn] = rec->seq;
                        ms.bestPpa[rec->lpn] = ppa;
                    }
                }
                bi.eraseCount = std::max(bi.eraseCount, rec->eraseCount);
                if (rec->defectEntry != OobRecord::kNoDefect &&
                    rec->defectEntry < cfg_.blocksPerChip) {
                    ms.defect[chip][rec->defectEntry] = 1;
                }
                if (rec->eraseEntry != OobRecord::kNoErase &&
                    rec->eraseEntry < cfg_.blocksPerChip) {
                    ms.eraseJ[chip][rec->eraseEntry] =
                        std::max(ms.eraseJ[chip][rec->eraseEntry],
                                 rec->eraseEntryCount);
                }
            } else {
                // Consumed but no copy of the record survives: a torn
                // program. The page is dead; the LPN (whatever it was)
                // keeps resolving to its previous copy.
                ++mountTornPages_;
            }
            if (p + 1 < pagesPerBlock_) {
                ++ms.page[chip];
            } else {
                ++ms.block[chip];
                ms.page[chip] = 0;
            }
        }
        mountScanNext(chip);
    };
    backend_.submit(std::move(req));
}

void
PageFtl::finishMount()
{
    MountScan &ms = *mountScan_;

    for (std::uint32_t c = 0; c < chips_.size(); ++c) {
        ChipState &cs = chips_[c];
        for (std::uint32_t b = 0; b < cfg_.blocksPerChip; ++b) {
            BlockInfo &bi = cs.blocks[b];
            bi.bad = ms.defect[c][b] != 0;
            // Erase-journal merge: a free block's own OOB went with its
            // erase, but the erase was journalled through subsequent
            // programs on the chip — its count no longer restarts at 0
            // (the ROADMAP-flagged gap). max() keeps the block's own
            // newer records authoritative when it was reprogrammed.
            bi.eraseCount = std::max(bi.eraseCount, ms.eraseJ[c][b]);
            if (bi.written == 0) {
                if (!bi.bad) {
                    bi.erased = true;
                    cs.freeBlocks.push_back(b);
                    // Re-journal the recovered count: it lives only in
                    // other blocks' OOB records, which GC will erase
                    // eventually — riding out with the next programs
                    // keeps it durable across repeated remounts.
                    if (bi.eraseCount > 0)
                        cs.eraseJournal.push_back({b, bi.eraseCount});
                }
                continue;
            }
            // Partially or fully written: close the block. Reopening a
            // half-written block after a crash is legal but a torn page
            // below the frontier would violate NOP ordering, so the
            // remainder is left dead for GC to reclaim.
            bi.erased = true;
            bi.written = pagesPerBlock_;
            bi.programmed = pagesPerBlock_;
            for (std::uint32_t p = 0; p < pagesPerBlock_; ++p) {
                const std::uint64_t lpn = bi.pageLpn[p];
                if (lpn == kUnmapped)
                    continue;
                if (ms.bestPpa[lpn] == packPpa({c, b, p}) &&
                    ms.bestSeq[lpn] == ms.pageSeq[c][b][p]) {
                    ++bi.valid;
                } else {
                    // A younger copy of this LPN exists elsewhere.
                    bi.pageLpn[p] = kUnmapped;
                }
            }
        }
    }

    for (std::uint64_t lpn = 0; lpn < logicalPages_; ++lpn) {
        if (ms.bestSeq[lpn] != 0) {
            map_[lpn] = ms.bestPpa[lpn];
            mapSeq_[lpn] = ms.bestSeq[lpn];
        }
    }
    seq_ = ms.maxSeq + 1;

    Callback cb = std::move(ms.cb);
    mountScan_.reset();
    cb(true);
}

// ---------------------------------------------------------------------
// Host I/O.
// ---------------------------------------------------------------------

void
PageFtl::readPage(std::uint64_t lpn, std::uint64_t dram_addr, Callback cb)
{
    babol_assert(lpn < logicalPages_, "LPN %llu out of range",
                 static_cast<unsigned long long>(lpn));

    // Track in-flight host I/O: the patrol scrubber yields while any is
    // outstanding.
    ++hostInflight_;
    cb = [this, inner = std::move(cb)](bool ok) {
        --hostInflight_;
        inner(ok);
    };

    // The write buffer holds the freshest copy of anything in it. A
    // slot being flushed may be shadowed by a younger non-flushing slot
    // for the same LPN — prefer the younger one.
    if (!wbSlots_.empty()) {
        std::int32_t hit = -1;
        for (std::uint32_t i = 0; i < wbSlots_.size(); ++i) {
            if (wbSlots_[i].lpn != lpn)
                continue;
            hit = static_cast<std::int32_t>(i);
            if (!wbSlots_[i].flushing)
                break;
        }
        if (hit >= 0) {
            ++hostReads_;
            ++wbHits_;
            std::vector<std::uint8_t> data(pageBytes_);
            dram::DramBuffer &dram = backend_.backendDram();
            dram.read(slotAddr(static_cast<std::uint32_t>(hit)), data);
            dram.write(dram_addr, data);
            scheduleIn(dram.transferTime(pageBytes_),
                       [cb] { cb(true); }, "ftl buffered read");
            return;
        }
    }

    if (map_[lpn] == kUnmapped) {
        warn("%s: read of unmapped LPN %llu", name().c_str(),
             static_cast<unsigned long long>(lpn));
        eq_.scheduleIn(0, [cb] { cb(false); }, "ftl unmapped read");
        return;
    }
    ++hostReads_;
    Ppa ppa = unpackPpa(map_[lpn]);
    ++chips_[ppa.chip].blocks[ppa.block].hostReads;

    const obs::SpanId span = eq_.context().trace.beginSpan(
        obsTrack_, lblRead_, curTick(), eq_.context().current, lpn);

    FlashRequest req;
    req.kind = FlashOpKind::Read;
    req.chip = ppa.chip;
    req.row = {0, ppa.block, ppa.page};
    req.dramAddr = dram_addr;
    req.ctx.span = span;
    req.onComplete = [this, cb = std::move(cb), span, lpn, ppa,
                      dram_addr](OpResult r) {
        if (r.ok) {
            // Audit invariant: an acknowledged read is never served
            // straight off a dead die — a dead region fails every
            // codeword by construction, so a success here means the
            // decay model and the fault model disagree.
            auto &aud = eq_.context().audit;
            if (aud.armed() && chipDead(ppa.chip)) {
                aud.report(obs::audit::Check::Reliability,
                           "rain.dead-die-serve", name(), r.doneTick,
                           strfmt("read of LPN %llu acked from dead "
                                  "chip %u",
                                  static_cast<unsigned long long>(lpn),
                                  ppa.chip));
            }
            eq_.context().trace.endSpan(span, r.doneTick);
            cb(true);
            return;
        }
        // Uncorrectable after every retry level. See whether a die-wide
        // dead region is underneath, then hand the page to the RAIN
        // manager for an XOR rebuild from the surviving stripe members.
        ++readFailures_;
        noteChipFault(ppa.chip);
        if (onReadFailed) {
            onReadFailed(lpn, ppa, dram_addr, [this, cb, span](bool ok) {
                if (!ok)
                    ++dataLoss_;
                eq_.context().trace.endSpan(span, curTick());
                cb(ok);
            });
            return;
        }
        ++dataLoss_;
        eq_.context().trace.endSpan(span, r.doneTick);
        cb(false);
    };
    backend_.submit(std::move(req));
}

void
PageFtl::writePage(std::uint64_t lpn, std::uint64_t dram_addr, Callback cb)
{
    babol_assert(lpn < logicalPages_, "LPN %llu out of range",
                 static_cast<unsigned long long>(lpn));
    ++hostWrites_;
    ++hostInflight_;
    cb = [this, inner = std::move(cb)](bool ok) {
        --hostInflight_;
        inner(ok);
    };
    if (!wbSlots_.empty()) {
        bufferWrite(lpn, dram_addr, std::move(cb));
        return;
    }
    const obs::SpanId span = eq_.context().trace.beginSpan(
        obsTrack_, lblWrite_, curTick(), eq_.context().current, lpn);
    allocateAndWrite(lpn, dram_addr, std::move(cb), 0, span);
}

// ---------------------------------------------------------------------
// Write buffer.
// ---------------------------------------------------------------------

std::uint64_t
PageFtl::slotAddr(std::uint32_t slot) const
{
    return wbBase_ + static_cast<std::uint64_t>(slot) * pageBytes_;
}

std::uint32_t
PageFtl::bufferedCount() const
{
    std::uint32_t n = 0;
    for (const BufferSlot &s : wbSlots_)
        if (s.lpn != kUnmapped && !s.flushing)
            ++n;
    return n;
}

void
PageFtl::bufferWrite(std::uint64_t lpn, std::uint64_t dram_addr,
                     Callback cb)
{
    dram::DramBuffer &dram = backend_.backendDram();

    auto stage = [&](std::uint32_t slot) {
        std::vector<std::uint8_t> data(pageBytes_);
        dram.read(dram_addr, data);
        dram.write(slotAddr(slot), data);
    };

    // Coalesce: a younger write to a buffered LPN overwrites in place;
    // all stacked callbacks are acknowledged by the one program.
    for (std::uint32_t i = 0; i < wbSlots_.size(); ++i) {
        BufferSlot &s = wbSlots_[i];
        if (s.lpn == lpn && !s.flushing) {
            ++wbHits_;
            stage(i);
            s.cbs.push_back(std::move(cb));
            return;
        }
    }

    for (std::uint32_t i = 0; i < wbSlots_.size(); ++i) {
        BufferSlot &s = wbSlots_[i];
        if (s.lpn != kUnmapped || s.flushing)
            continue;
        stage(i);
        s.lpn = lpn;
        s.cbs.push_back(std::move(cb));
        if (bufferedCount() >= wbSlots_.size()) {
            flushBuffer();
        } else if (!wbTimerArmed_) {
            wbTimerArmed_ = true;
            scheduleIn(cfg_.writeBufferFlushUs * ticks::perUs, [this] {
                wbTimerArmed_ = false;
                flushBuffer();
            }, "ftl wb flush timer");
        }
        return;
    }

    // Every slot is pinned by an in-flight flush: write through. The
    // host sees the same contract (ack at program completion).
    const obs::SpanId span = eq_.context().trace.beginSpan(
        obsTrack_, lblWrite_, curTick(), eq_.context().current, lpn);
    allocateAndWrite(lpn, dram_addr, std::move(cb), 0, span);
}

void
PageFtl::flushBuffer()
{
    for (std::uint32_t i = 0; i < wbSlots_.size(); ++i) {
        BufferSlot &s = wbSlots_[i];
        if (s.lpn == kUnmapped || s.flushing)
            continue;
        s.flushing = true;
        ++wbFlushes_;
        ++wbOutstanding_;
        const obs::SpanId span = eq_.context().trace.beginSpan(
            obsTrack_, lblWrite_, curTick(), eq_.context().current, s.lpn);
        allocateAndWrite(s.lpn, slotAddr(i), [this, i](bool ok) {
            BufferSlot &slot = wbSlots_[i];
            std::vector<Callback> cbs = std::move(slot.cbs);
            slot.cbs.clear();
            slot.lpn = kUnmapped;
            slot.flushing = false;
            --wbOutstanding_;
            for (Callback &one : cbs)
                one(ok);
            if (wbFlushCb_) {
                if (bufferedCount() != 0) {
                    flushBuffer(); // writes coalesced in behind us
                } else if (wbOutstanding_ == 0) {
                    Callback done = std::move(wbFlushCb_);
                    wbFlushCb_ = nullptr;
                    done(true);
                }
            }
        }, 0, span);
    }
}

void
PageFtl::flush(Callback cb)
{
    flushBuffer();
    if (wbOutstanding_ == 0 && bufferedCount() == 0) {
        eq_.scheduleIn(0, [cb] { cb(true); }, "ftl flush idle");
        return;
    }
    babol_assert(!wbFlushCb_, "overlapping flush() calls");
    wbFlushCb_ = std::move(cb);
}

// ---------------------------------------------------------------------
// Allocation and programming.
// ---------------------------------------------------------------------

void
PageFtl::allocateAndWrite(std::uint64_t lpn, std::uint64_t dram_addr,
                          Callback cb, std::uint32_t retries,
                          obs::SpanId span, OobState state,
                          std::uint64_t move_seq,
                          std::int32_t preferred_chip)
{
    PendingWrite pw;
    pw.lpn = lpn;
    pw.dramAddr = dram_addr;
    pw.cb = std::move(cb);
    pw.retries = retries;
    pw.state = state;
    // The seq is drawn HERE, at enqueue, not when the per-chip queue
    // pumps: two generations of one LPN can land on different chips,
    // and a busier chip pumping later must not hand the older
    // generation a younger seq (that inversion would let the stale
    // copy win both the live map and mount-time arbitration).
    pw.moveSeq = move_seq != 0 ? move_seq : seq_++;
    pw.span = span;
    enqueueWrite(std::move(pw), preferred_chip);
}

void
PageFtl::enqueueWrite(PendingWrite pw, std::int32_t preferred_chip)
{
    const auto nchips = static_cast<std::uint32_t>(chips_.size());
    std::uint32_t chip;
    if (preferred_chip >= 0 &&
        static_cast<std::uint32_t>(preferred_chip) < nchips &&
        !chipDead(static_cast<std::uint32_t>(preferred_chip))) {
        // Steered (scrub refresh to the coldest chip, RAIN parity off
        // the stripe's member chips): does not advance the host cursor.
        chip = static_cast<std::uint32_t>(preferred_chip);
    } else {
        chip = writeCursor_ % nchips;
        for (std::uint32_t i = 0; i < nchips && chipDead(chip); ++i)
            chip = (chip + 1) % nchips;
        writeCursor_ = (chip + 1) % nchips;
    }
    chips_[chip].writeQueue.push_back(std::move(pw));
    pumpWrites(chip);
}

/** Could a GC pass reclaim space on @p chip right now — is one already
 *  running (or an erase landing), or does a closed block with dead
 *  pages exist? Decides whether the last free block is worth holding
 *  back as the GC reserve. */
bool
PageFtl::gcReclaimable(std::uint32_t chip) const
{
    const ChipState &cs = chips_[chip];
    if (cs.gcInProgress || cs.wlInProgress || cs.erasePending)
        return true;
    for (std::uint32_t b = 0; b < cs.blocks.size(); ++b) {
        if (static_cast<std::int32_t>(b) == cs.activeBlock)
            continue;
        const BlockInfo &bi = cs.blocks[b];
        if (!bi.bad && bi.erased && bi.programmed >= pagesPerBlock_ &&
            bi.valid < pagesPerBlock_) {
            return true;
        }
    }
    return false;
}

bool
PageFtl::ensureActiveBlock(std::uint32_t chip, bool for_move)
{
    ChipState &cs = chips_[chip];
    if (cs.activeBlock >= 0 &&
        cs.blocks[cs.activeBlock].written < pagesPerBlock_) {
        // An active block carved from the reserve serves moves only:
        // host writes filling it would strand the migration's
        // remaining pages.
        return for_move || !cs.activeReserved;
    }
    if (cs.freeBlocks.empty())
        return false;
    // The GC reserve: host writes never take the last free block while
    // garbage collection could still turn it back into two — otherwise
    // a deep host queue eats the block GC needs for its moves and the
    // chip deadlocks with every page programmed.
    if (!for_move && cs.freeBlocks.size() == 1 && gcReclaimable(chip))
        return false;

    // Dynamic wear levelling: take the coldest free block.
    auto best = cs.freeBlocks.begin();
    for (auto it = cs.freeBlocks.begin(); it != cs.freeBlocks.end(); ++it) {
        if (cs.blocks[*it].eraseCount < cs.blocks[*best].eraseCount)
            best = it;
    }
    cs.activeBlock = static_cast<std::int32_t>(*best);
    cs.freeBlocks.erase(best);
    cs.activeReserved = for_move && cs.freeBlocks.empty() &&
                        (cs.gcInProgress || cs.wlInProgress);
    return true;
}

void
PageFtl::retireBlock(std::uint32_t chip, std::uint32_t block)
{
    ChipState &cs = chips_[chip];
    BlockInfo &bi = cs.blocks[block];
    if (bi.bad)
        return; // a second in-flight failure already retired it
    warn("%s: retiring chip %u block %u after %u erases", name().c_str(),
         chip, block, bi.eraseCount);
    bi.bad = true;
    bi.erased = false;
    ++retired_;
    // Journal the retirement: the entry rides out to flash in the OOB
    // record of this chip's next program, making it mount-recoverable.
    cs.defectJournal.push_back(block);
    backend_.backendFaults().noteRemap(name(), chip, block, curTick());
    if (cs.activeBlock == static_cast<std::int32_t>(block))
        cs.activeBlock = -1;
    auto it = std::find(cs.freeBlocks.begin(), cs.freeBlocks.end(), block);
    if (it != cs.freeBlocks.end())
        cs.freeBlocks.erase(it);
}

void
PageFtl::startEraseBeforeUse(std::uint32_t chip, std::uint32_t block)
{
    ChipState &cs = chips_[chip];
    if (cs.erasePending)
        return;
    cs.erasePending = true;
    ++erases_;

    auto submit = [this, chip, block] {
        FlashRequest req;
        req.kind = FlashOpKind::Erase;
        req.chip = chip;
        req.row = {0, block, 0};
        req.onComplete = [this, chip, block](OpResult r) {
            ChipState &state = chips_[chip];
            state.erasePending = false;
            BlockInfo &bi = state.blocks[block];
            if (!r.ok) {
                // Worn out: take it out of service; queued writes
                // re-route through the next pumpWrites pass.
                noteChipFault(chip);
                retireBlock(chip, block);
            } else {
                bi.erased = true;
                ++bi.eraseCount;
                bi.written = 0;
                bi.programmed = 0;
                bi.valid = 0;
                bi.hostReads = 0;
                std::fill(bi.pageLpn.begin(), bi.pageLpn.end(),
                          kUnmapped);
                pushEraseJournal(chip, block);
            }
            pumpWrites(chip);
            maybeStartWearLevel(chip);
        };
        backend_.submit(std::move(req));
    };
    // RAIN release protocol: stripes with a unit on this block lose it
    // to the erase — the manager refreshes their live members first.
    if (beforeErase)
        beforeErase(chip, block, std::move(submit));
    else
        submit();
}

/** Journal a completed erase (block + post-erase count) for the chip's
 *  next OOB records, replacing any stale entry for the same block. */
void
PageFtl::pushEraseJournal(std::uint32_t chip, std::uint32_t block)
{
    ChipState &cs = chips_[chip];
    const std::uint32_t count = cs.blocks[block].eraseCount;
    for (auto &e : cs.eraseJournal) {
        if (e.first == block) {
            e.second = count;
            return;
        }
    }
    cs.eraseJournal.push_back({block, count});
}

void
PageFtl::pumpWrites(std::uint32_t chip)
{
    if (chipDead(chip))
        return; // markChipDead already rerouted this queue
    ChipState &cs = chips_[chip];
    while (!cs.writeQueue.empty()) {
        // Host writes honour the GC reserve; GC/WL moves may take the
        // last free block — their erase is what turns it back into two.
        std::size_t pick = 0;
        if (!ensureActiveBlock(chip, cs.writeQueue.front().state !=
                                         OobState::HostWrite)) {
            // The head can't go. A move deeper in the queue still can
            // when only the reserve is left: a head-of-line host write
            // must not starve the very GC it is waiting on.
            pick = cs.writeQueue.size();
            for (std::size_t i = 1; i < cs.writeQueue.size(); ++i) {
                if (cs.writeQueue[i].state != OobState::HostWrite) {
                    pick = i;
                    break;
                }
            }
            if (pick < cs.writeQueue.size() &&
                !ensureActiveBlock(chip, true)) {
                pick = cs.writeQueue.size();
            }
            if (pick == cs.writeQueue.size()) {
                maybeStartGc(chip);
                // A migration whose move is parked right here in this
                // queue has nothing in flight — no completion is coming
                // to re-pump it, and space only ever appears through
                // the erase that move is blocking.
                bool move_waiting = false;
                for (const PendingWrite &w : cs.writeQueue) {
                    if (w.state != OobState::HostWrite) {
                        move_waiting = true;
                        break;
                    }
                }
                if (cs.erasePending ||
                    (!move_waiting &&
                     (cs.gcInProgress || cs.wlInProgress))) {
                    return; // a completion will re-pump
                }
                if (!move_waiting) {
                    fatal("%s: chip %u out of free blocks (GC could "
                          "not keep up — raise over-provisioning)",
                          name().c_str(), chip);
                }
                // End of life: every page on the chip is programmed and
                // the migration has nowhere to relocate into. Fail the
                // queued host writes rather than hanging them forever.
                // Parked moves stay: failing one would let the victim
                // be erased with valid data still aboard.
                warn("%s: chip %u out of relocatable space (end of "
                     "life); failing queued host writes",
                     name().c_str(), chip);
                for (std::size_t i = 0; i < cs.writeQueue.size();) {
                    if (cs.writeQueue[i].state != OobState::HostWrite) {
                        ++i;
                        continue;
                    }
                    PendingWrite dead = std::move(cs.writeQueue[i]);
                    cs.writeQueue.erase(
                        cs.writeQueue.begin() +
                        static_cast<std::ptrdiff_t>(i));
                    eq_.context().trace.endSpan(dead.span, curTick());
                    dead.cb(false);
                }
                return;
            }
        }
        auto block = static_cast<std::uint32_t>(cs.activeBlock);
        BlockInfo &bi = cs.blocks[block];
        if (!bi.erased) {
            startEraseBeforeUse(chip, block);
            return; // resume when the erase lands
        }

        PendingWrite write = std::move(cs.writeQueue[pick]);
        cs.writeQueue.erase(cs.writeQueue.begin() +
                            static_cast<std::ptrdiff_t>(pick));

        std::uint32_t page = bi.written++;
        if (write.state != OobState::RainParity) {
            bi.pageLpn[page] = write.lpn;
            ++bi.valid;
        }
        // Parity pages stay out of the reverse map and the valid count:
        // they are dead weight GC reclaims with the block, and their
        // lpn field is a stripe id, not a logical address.

        // The OOB record travels in the same array commit as the data:
        // a power cut either lands both or tears both.
        OobRecord rec;
        rec.lpn = write.lpn;
        rec.seq = write.moveSeq;
        rec.eraseCount = bi.eraseCount;
        rec.state = write.state;
        if (!cs.defectJournal.empty()) {
            rec.defectEntry = cs.defectJournal.front();
            cs.defectJournal.pop_front();
        }
        if (!cs.eraseJournal.empty()) {
            rec.eraseEntry = cs.eraseJournal.front().first;
            rec.eraseEntryCount =
                std::min(cs.eraseJournal.front().second, 0xFFFEu);
            cs.eraseJournal.pop_front();
        }
        const std::uint64_t wseq = rec.seq;
        const std::uint32_t journalled = rec.defectEntry;
        const std::uint32_t ejBlock = rec.eraseEntry;
        const std::uint32_t ejCount = rec.eraseEntryCount;

        FlashRequest req;
        req.kind = FlashOpKind::Program;
        req.chip = chip;
        req.row = {0, block, page};
        req.dramAddr = write.dramAddr;
        req.oob = encodeOob(rec, oobBytes_);
        req.ctx.span = write.span;
        req.onComplete = [this, chip, block, page, wseq, journalled,
                          ejBlock, ejCount,
                          write = std::move(write)](OpResult r) mutable {
            BlockInfo &info = chips_[chip].blocks[block];
            ++info.programmed;
            if (write.state == OobState::RainParity) {
                // Parity bypasses the map entirely: report where it
                // landed (or reroute on a program failure, like any
                // other write).
                if (r.ok) {
                    if (write.parityCb)
                        write.parityCb(true, {chip, block, page});
                } else {
                    if (journalled != OobRecord::kNoDefect)
                        chips_[chip].defectJournal.push_front(journalled);
                    if (ejBlock != OobRecord::kNoErase)
                        chips_[chip].eraseJournal.push_front(
                            {ejBlock, ejCount});
                    noteChipFault(chip);
                    retireBlock(chip, block);
                    if (write.retries + 1 > cfg_.maxWriteRetries) {
                        if (write.parityCb)
                            write.parityCb(false, {chip, block, page});
                    } else {
                        ++write.retries;
                        enqueueWrite(std::move(write), -1);
                    }
                }
                maybeStartGc(chip);
                return;
            }
            if (r.ok) {
                // '>=': a GC/WL move reuses the seq of the copy it
                // relocates, so equality means "same generation, new
                // home" — install. Anything strictly older lost to a
                // younger write that completed first.
                if (wseq >= mapSeq_[write.lpn]) {
                    invalidate(write.lpn);
                    map_[write.lpn] = packPpa({chip, block, page});
                    mapSeq_[write.lpn] = wseq;
                    // The committed page joins the RAIN manager's open
                    // stripe; its bytes are still intact in DRAM (the
                    // source buffer is pinned until this ack).
                    if (onProgramCommitted) {
                        onProgramCommitted({chip, block, page}, write.lpn,
                                           write.dramAddr, write.state);
                    }
                } else {
                    // A younger write to the same LPN completed first
                    // (cross-chip reorder): this copy is durable but
                    // already stale — exactly what the mount-time seq
                    // arbitration would conclude.
                    info.pageLpn[page] = kUnmapped;
                    --info.valid;
                }
                eq_.context().trace.endSpan(write.span, r.doneTick);
                write.cb(true);
            } else {
                // Program failure: drop the reservation, retire the
                // block, and re-route the write elsewhere. A journal
                // entry that rode this OOB never landed — requeue it.
                info.pageLpn[page] = kUnmapped;
                --info.valid;
                if (journalled != OobRecord::kNoDefect)
                    chips_[chip].defectJournal.push_front(journalled);
                if (ejBlock != OobRecord::kNoErase)
                    chips_[chip].eraseJournal.push_front({ejBlock, ejCount});
                noteChipFault(chip);
                retireBlock(chip, block);
                if (write.retries + 1 > cfg_.maxWriteRetries) {
                    warn("%s: write of LPN %llu failed %u times; giving "
                         "up",
                         name().c_str(),
                         static_cast<unsigned long long>(write.lpn),
                         write.retries + 1);
                    eq_.context().trace.endSpan(write.span, r.doneTick);
                    write.cb(false);
                } else {
                    // The retry keeps the original seq: it is the same
                    // generation, merely rerouted — drawing a fresh one
                    // would let a rerouted GC move outrank a host
                    // overwrite issued in between.
                    allocateAndWrite(write.lpn, write.dramAddr,
                                     std::move(write.cb),
                                     write.retries + 1, write.span,
                                     write.state, write.moveSeq);
                }
            }
            maybeStartGc(chip);
        };
        backend_.submit(std::move(req));
    }
}

void
PageFtl::invalidate(std::uint64_t lpn)
{
    if (map_[lpn] == kUnmapped)
        return;
    Ppa old = unpackPpa(map_[lpn]);
    BlockInfo &bi = chips_[old.chip].blocks[old.block];
    babol_assert(bi.pageLpn[old.page] == lpn, "reverse map corrupt");
    bi.pageLpn[old.page] = kUnmapped;
    --bi.valid;
    map_[lpn] = kUnmapped;
}

// ---------------------------------------------------------------------
// Background moves: garbage collection and static wear levelling.
// ---------------------------------------------------------------------

void
PageFtl::maybeStartGc(std::uint32_t chip)
{
    ChipState &cs = chips_[chip];
    if (chipDead(chip) || cs.gcInProgress || cs.wlInProgress ||
        cs.freeBlocks.size() >= cfg_.gcLowWater) {
        return;
    }

    // Greedy victim selection: the fully-programmed block with the
    // fewest valid pages (never the active block, never a bad one).
    std::int32_t victim = -1;
    std::uint32_t best_valid = ~0u;
    for (std::uint32_t b = 0; b < cs.blocks.size(); ++b) {
        if (static_cast<std::int32_t>(b) == cs.activeBlock)
            continue;
        const BlockInfo &bi = cs.blocks[b];
        if (bi.bad || !bi.erased || bi.programmed < pagesPerBlock_)
            continue;
        if (bi.valid < best_valid) {
            best_valid = bi.valid;
            victim = static_cast<std::int32_t>(b);
        }
    }
    // A victim with no invalid pages frees nothing — wait for real
    // invalidations instead of churning.
    if (victim < 0 || best_valid >= pagesPerBlock_)
        return;

    cs.gcInProgress = true;
    ++gcRuns_;
    moveNext(chip, static_cast<std::uint32_t>(victim), 0,
             OobState::GcMove);
}

void
PageFtl::maybeStartWearLevel(std::uint32_t chip)
{
    if (cfg_.wearSpreadThreshold == 0 || chipDead(chip))
        return;
    ChipState &cs = chips_[chip];
    // Never compete with GC: static WL is a background activity. It may
    // run right at the GC low-water mark though — on small chips the
    // steady-state pool never rises above it, and a WL migration
    // returns its victim to the pool just like a GC run does.
    if (cs.gcInProgress || cs.wlInProgress ||
        cs.freeBlocks.size() < cfg_.gcLowWater) {
        return;
    }
    if (wearSpread(chip) <= cfg_.wearSpreadThreshold)
        return;

    // Coldest closed block holding valid data: its content has sat
    // still while the rest of the chip cycled. Moving it out retires
    // the imbalance at its source.
    std::int32_t victim = -1;
    std::uint32_t coldest = ~0u;
    for (std::uint32_t b = 0; b < cs.blocks.size(); ++b) {
        if (static_cast<std::int32_t>(b) == cs.activeBlock)
            continue;
        const BlockInfo &bi = cs.blocks[b];
        if (bi.bad || !bi.erased || bi.programmed < pagesPerBlock_ ||
            bi.valid == 0) {
            continue;
        }
        if (bi.eraseCount < coldest) {
            coldest = bi.eraseCount;
            victim = static_cast<std::int32_t>(b);
        }
    }
    if (victim < 0 || coldest + cfg_.wearSpreadThreshold >=
                          maxEraseCount(chip)) {
        return;
    }

    cs.wlInProgress = true;
    ++wlRuns_;
    moveNext(chip, static_cast<std::uint32_t>(victim), 0,
             OobState::WlMove);
}

void
PageFtl::moveNext(std::uint32_t chip, std::uint32_t victim,
                  std::uint32_t page, OobState mode)
{
    ChipState &cs = chips_[chip];
    BlockInfo &bi = cs.blocks[victim];
    const std::uint64_t scratch =
        gcScratchAddr_ + static_cast<std::uint64_t>(chip) * pageBytes_;

    if (chipDead(chip)) {
        // The die died under the migration: nothing on it can be read,
        // programmed or erased any more. The on-demand / sweep rebuild
        // paths recover what the map still needs.
        if (mode == OobState::WlMove)
            cs.wlInProgress = false;
        else
            cs.gcInProgress = false;
        cs.activeReserved = false;
        return;
    }

    // Skip invalid pages.
    while (page < pagesPerBlock_ && bi.pageLpn[page] == kUnmapped)
        ++page;

    if (page >= pagesPerBlock_) {
        // All valid pages relocated: reclaim the block.
        ++erases_;
        auto submit = [this, chip, victim, mode] {
            FlashRequest req;
            req.kind = FlashOpKind::Erase;
            req.chip = chip;
            req.row = {0, victim, 0};
            req.onComplete = [this, chip, victim, mode](OpResult r) {
                ChipState &state = chips_[chip];
                BlockInfo &info = state.blocks[victim];
                if (mode == OobState::WlMove)
                    state.wlInProgress = false;
                else
                    state.gcInProgress = false;
                if (r.ok) {
                    info.erased = true;
                    ++info.eraseCount;
                    info.written = 0;
                    info.programmed = 0;
                    info.valid = 0;
                    info.hostReads = 0;
                    std::fill(info.pageLpn.begin(), info.pageLpn.end(),
                              kUnmapped);
                    state.freeBlocks.push_back(victim);
                    pushEraseJournal(chip, victim);
                    // The migration paid off: whatever room is left in
                    // a reserve-carved active block is the host's
                    // again.
                    state.activeReserved = false;
                } else {
                    noteChipFault(chip);
                    retireBlock(chip, victim);
                }
                maybeStartGc(chip);
                // A failed erase never returned the victim to the
                // pool. If a follow-up migration just started, keep
                // holding a reserve-carved active block for its moves
                // — releasing it here lets the host fill the last
                // pages on the chip and wedge it with no free page to
                // relocate anything into.
                if (!state.gcInProgress && !state.wlInProgress)
                    state.activeReserved = false;
                pumpWrites(chip);
                maybeStartWearLevel(chip);
            };
            backend_.submit(std::move(req));
        };
        if (beforeErase)
            beforeErase(chip, victim, std::move(submit));
        else
            submit();
        return;
    }

    // Relocate one page: read into the chip's staging page, rewrite at
    // the current write frontier, continue with the next page. The
    // rewrite carries the copy's original seq (see PendingWrite), so a
    // host overwrite racing the move always wins.
    std::uint64_t lpn = bi.pageLpn[page];
    std::uint64_t move_seq = mapSeq_[lpn];
    if (mode == OobState::WlMove)
        ++wlPageMoves_;
    else
        ++gcPageMoves_;
    FlashRequest req;
    req.kind = FlashOpKind::Read;
    req.chip = chip;
    req.row = {0, victim, page};
    req.dramAddr = scratch;
    req.onComplete = [this, chip, victim, page, lpn, scratch, mode,
                      move_seq](OpResult r) {
        if (chips_[chip].blocks[victim].pageLpn[page] != lpn) {
            // Invalidated by a host overwrite while the read was in
            // flight: nothing left to move.
            moveNext(chip, victim, page + 1, mode);
            return;
        }
        if (!r.ok) {
            noteChipFault(chip);
            ++readFailures_;
            auto giveUp = [this, chip, victim, page, lpn, mode] {
                warn("%s: %s read of block %u page %u failed; data lost",
                     name().c_str(),
                     mode == OobState::WlMove ? "WL" : "GC", victim,
                     page);
                ++dataLoss_;
                if (map_[lpn] == packPpa({chip, victim, page}))
                    invalidate(lpn);
                moveNext(chip, victim, page + 1, mode);
            };
            if (onReadFailed) {
                // XOR-rebuild the page into the move staging slot and
                // continue the migration with the recovered bytes.
                onReadFailed(
                    lpn, {chip, victim, page}, scratch,
                    [this, chip, victim, page, lpn, scratch, mode,
                     move_seq, giveUp](bool rebuilt) {
                        if (!rebuilt) {
                            giveUp();
                            return;
                        }
                        if (chips_[chip].blocks[victim].pageLpn[page] !=
                            lpn) {
                            moveNext(chip, victim, page + 1, mode);
                            return;
                        }
                        allocateAndWrite(
                            lpn, scratch,
                            [this, chip, victim, page, mode](bool) {
                                moveNext(chip, victim, page + 1, mode);
                            },
                            0, obs::kNoSpan, mode, move_seq);
                    });
                return;
            }
            giveUp();
            return;
        }
        allocateAndWrite(lpn, scratch, [this, chip, victim, page,
                                        mode](bool ok) {
            if (!ok)
                warn("%s: %s rewrite failed", name().c_str(),
                     mode == OobState::WlMove ? "WL" : "GC");
            moveNext(chip, victim, page + 1, mode);
        }, 0, obs::kNoSpan, mode, move_seq);
    };
    backend_.submit(std::move(req));
}

// ---------------------------------------------------------------------
// Reliability services (patrol scrubber / RAIN manager attach here).
// ---------------------------------------------------------------------

std::optional<std::uint64_t>
PageFtl::pageLpnAt(std::uint32_t chip, std::uint32_t block,
                   std::uint32_t page) const
{
    const std::uint64_t lpn = chips_[chip].blocks[block].pageLpn[page];
    if (lpn == kUnmapped)
        return std::nullopt;
    return lpn;
}

std::optional<Ppa>
PageFtl::mappedPpa(std::uint64_t lpn) const
{
    if (lpn >= map_.size() || map_[lpn] == kUnmapped)
        return std::nullopt;
    return unpackPpa(map_[lpn]);
}

std::uint64_t
PageFtl::reliabilityScratchAddr(std::uint32_t slot) const
{
    babol_assert(slot < cfg_.reliabilityScratchPages,
                 "reliability scratch slot %u out of range (%u reserved)",
                 slot, cfg_.reliabilityScratchPages);
    return reliabilityScratchBase_ +
           static_cast<std::uint64_t>(slot) * pageBytes_;
}

void
PageFtl::readPhysical(std::uint32_t chip, std::uint32_t block,
                      std::uint32_t page, std::uint64_t dram_addr,
                      std::function<void(const core::OpResult &)> cb)
{
    FlashRequest req;
    req.kind = FlashOpKind::Read;
    req.chip = chip;
    req.row = {0, block, page};
    req.dramAddr = dram_addr;
    req.onComplete = [cb = std::move(cb)](OpResult r) { cb(r); };
    backend_.submit(std::move(req));
}

void
PageFtl::refreshLpn(std::uint64_t lpn, Callback cb,
                    std::int32_t preferred_chip)
{
    babol_assert(cfg_.reliabilityScratchPages >= 1,
                 "refreshLpn needs a reliability scratch page");
    refreshQueue_.push_back({lpn, std::move(cb), preferred_chip});
    pumpRefresh();
}

void
PageFtl::pumpRefresh()
{
    if (refreshBusy_ || refreshQueue_.empty())
        return;
    RefreshJob job = std::move(refreshQueue_.front());
    refreshQueue_.pop_front();

    if (map_[job.lpn] == kUnmapped) {
        // Nothing mapped (lost or trimmed): vacuous success.
        eq_.scheduleIn(0, [this, cb = std::move(job.cb)] {
            cb(true);
            pumpRefresh();
        }, "ftl refresh unmapped");
        return;
    }
    refreshBusy_ = true;
    const Ppa at = unpackPpa(map_[job.lpn]);
    const std::uint64_t scratch = reliabilityScratchAddr(0);
    readPhysical(at.chip, at.block, at.page, scratch,
                 [this, job = std::move(job), at,
                  scratch](const OpResult &r) mutable {
        auto rewrite = [this](RefreshJob j, const Ppa &expected,
                              std::uint64_t src) {
            if (map_[j.lpn] != packPpa(expected)) {
                // A host overwrite landed while we were reading: the
                // fresh copy already lives elsewhere.
                refreshBusy_ = false;
                j.cb(true);
                pumpRefresh();
                return;
            }
            ++refreshes_;
            allocateAndWrite(j.lpn, src,
                             [this, cb = std::move(j.cb)](bool ok) {
                                 refreshBusy_ = false;
                                 cb(ok);
                                 pumpRefresh();
                             },
                             0, obs::kNoSpan, OobState::ScrubMove,
                             mapSeq_[j.lpn], j.preferredChip);
        };
        if (r.ok) {
            rewrite(std::move(job), at, scratch);
            return;
        }
        ++readFailures_;
        noteChipFault(at.chip);
        if (onReadFailed) {
            const std::uint64_t lpn = job.lpn;
            onReadFailed(lpn, at, scratch,
                         [this, job = std::move(job), at, scratch,
                          rewrite](bool rebuilt) mutable {
                             if (!rebuilt) {
                                 ++dataLoss_;
                                 refreshBusy_ = false;
                                 job.cb(false);
                                 pumpRefresh();
                                 return;
                             }
                             rewrite(std::move(job), at, scratch);
                         });
            return;
        }
        ++dataLoss_;
        refreshBusy_ = false;
        job.cb(false);
        pumpRefresh();
    });
}

void
PageFtl::rewritePage(std::uint64_t lpn, const Ppa &expected,
                     std::uint64_t dram_addr, Callback cb,
                     std::int32_t preferred_chip)
{
    if (map_[lpn] != packPpa(expected)) {
        // Overwritten mid-rebuild: the younger copy wins, nothing to do.
        eq_.scheduleIn(0, [cb = std::move(cb)] { cb(true); },
                       "ftl rewrite stale");
        return;
    }
    allocateAndWrite(lpn, dram_addr, std::move(cb), 0, obs::kNoSpan,
                     OobState::ScrubMove, mapSeq_[lpn], preferred_chip);
}

void
PageFtl::writeParity(std::uint64_t stripe_id, std::uint64_t dram_addr,
                     std::uint32_t avoid_chip_mask,
                     std::function<void(bool ok, Ppa at)> cb)
{
    PendingWrite pw;
    pw.lpn = stripe_id;
    pw.dramAddr = dram_addr;
    pw.cb = [](bool) {};
    pw.state = OobState::RainParity;
    pw.moveSeq = seq_++;
    pw.parityCb = std::move(cb);
    enqueueWrite(std::move(pw), coldestChip(avoid_chip_mask));
}

std::int32_t
PageFtl::coldestChip(std::uint32_t exclude_mask) const
{
    std::int32_t best = -1;
    std::uint64_t bestWear = ~std::uint64_t(0);
    for (std::uint32_t c = 0; c < chips_.size(); ++c) {
        if (chipDead(c) || (c < 32 && ((exclude_mask >> c) & 1)))
            continue;
        std::uint64_t wear = 0;
        for (const BlockInfo &bi : chips_[c].blocks)
            wear += bi.eraseCount;
        if (wear < bestWear) {
            bestWear = wear;
            best = static_cast<std::int32_t>(c);
        }
    }
    return best;
}

void
PageFtl::markChipDead(std::uint32_t chip)
{
    if (chip >= 64 || chipDead(chip))
        return;
    deadChipMask_ |= std::uint64_t(1) << chip;
    warn("%s: chip %u declared dead; rerouting %zu queued writes",
         name().c_str(), chip, chips_[chip].writeQueue.size());

    ChipState &cs = chips_[chip];
    cs.gcInProgress = false;
    cs.wlInProgress = false;
    cs.activeReserved = false;
    std::deque<PendingWrite> orphans = std::move(cs.writeQueue);
    cs.writeQueue.clear();
    for (PendingWrite &w : orphans)
        enqueueWrite(std::move(w), -1);
    if (onChipDead)
        onChipDead(chip);
}

void
PageFtl::noteChipFault(std::uint32_t chip)
{
    if (chipDead(chip))
        return;
    const std::string nm = backend_.backendChipName(chip);
    if (!nm.empty() && backend_.backendFaults().dieDead(nm))
        markChipDead(chip);
}

} // namespace babol::ftl
