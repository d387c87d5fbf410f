#include "hic.hh"

#include "obs/sim_context.hh"

namespace babol::host {

Hic::Hic(EventQueue &eq, const std::string &name, ftl::PageFtl &ftl,
         HicConfig cfg)
    : SimObject(eq, name), ftl_(ftl), cfg_(cfg),
      metrics_(eq.context().metrics, name)
{
    obsTrack_ = obs::interner().intern(name);
    lblRead_ = obs::interner().intern("io.read");
    lblWrite_ = obs::interner().intern("io.write");
    metrics_.value("ios_completed", [this] { return iosCompleted_; });
    metrics_.value("ios_failed", [this] { return iosFailed_; });
    metrics_.value("page_ops", [this] { return pageOps_; });
    metrics_.value("rmw", [this] { return rmw_; });
    metrics_.value("in_flight", [this] { return inFlight_; });

    babol_assert(ftl.pageBytes() % cfg_.sectorBytes == 0,
                 "page size %u not a multiple of the sector size %u",
                 ftl.pageBytes(), cfg_.sectorBytes);
    sectorsPerPage_ = ftl.pageBytes() / cfg_.sectorBytes;

    // Scratch slots sit just below the FTL's reserved staging region at
    // the top of DRAM.
    const std::uint64_t base = ftl.reservedDramBase();
    const std::uint64_t needed =
        static_cast<std::uint64_t>(cfg_.scratchSlots) * ftl.pageBytes();
    babol_assert(base >= needed,
                 "DRAM too small for HIC scratch below the FTL's %llu "
                 "reserved bytes",
                 static_cast<unsigned long long>(
                     ftl_.backend().backendDram().size() - base));
    for (std::uint32_t i = 0; i < cfg_.scratchSlots; ++i) {
        freeScratch_.push_back(base - static_cast<std::uint64_t>(i + 1) *
                                          ftl.pageBytes());
    }
}

void
Hic::lockPage(std::uint64_t lpn, std::function<void()> fn)
{
    if (lockedPages_.count(lpn)) {
        pageWaiters_[lpn].push_back(std::move(fn));
        return;
    }
    lockedPages_.insert(lpn);
    fn();
}

void
Hic::unlockPage(std::uint64_t lpn)
{
    auto it = pageWaiters_.find(lpn);
    if (it != pageWaiters_.end() && !it->second.empty()) {
        auto fn = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty())
            pageWaiters_.erase(it);
        fn(); // lock passes to the next waiter
        return;
    }
    lockedPages_.erase(lpn);
}

void
Hic::withScratch(std::function<void(std::uint64_t)> fn)
{
    if (freeScratch_.empty()) {
        scratchWaiters_.push_back(std::move(fn));
        return;
    }
    std::uint64_t addr = freeScratch_.front();
    freeScratch_.pop_front();
    fn(addr);
}

void
Hic::releaseScratch(std::uint64_t addr)
{
    if (!scratchWaiters_.empty()) {
        auto fn = std::move(scratchWaiters_.front());
        scratchWaiters_.pop_front();
        fn(addr); // slot passes to the next waiter
        return;
    }
    freeScratch_.push_back(addr);
}

void
Hic::pieceDone(const std::shared_ptr<IoState> &state, bool ok)
{
    if (!ok)
        state->failed = true;
    babol_assert(state->outstanding > 0, "piece completion underflow");
    --state->outstanding;
    if (state->issuedAll && state->outstanding == 0) {
        if (state->failed)
            ++iosFailed_;
        else
            ++iosCompleted_;
        babol_assert(inFlight_ > 0, "in-flight window underflow");
        --inFlight_;
        eq_.context().trace.endSpan(state->span, curTick());
        if (state->io.onComplete)
            state->io.onComplete(!state->failed);
    }
}

void
Hic::submit(HostIo io)
{
    babol_assert(io.sectors >= 1, "empty host I/O");
    babol_assert(canAccept(),
                 "HIC over its in-flight window (%u of %u): gate "
                 "submissions on canAccept()",
                 inFlight_, cfg_.maxInflight);
    ++inFlight_;
    babol_assert(io.lba + io.sectors <= totalSectors(),
                 "host I/O [%llu, %llu) beyond device end %llu",
                 static_cast<unsigned long long>(io.lba),
                 static_cast<unsigned long long>(io.lba + io.sectors),
                 static_cast<unsigned long long>(totalSectors()));

    auto state = std::make_shared<IoState>();
    state->io = std::move(io);
    state->span = eq_.context().trace.beginSpan(
        obsTrack_, state->io.write ? lblWrite_ : lblRead_, curTick(),
        eq_.context().current, state->io.lba);

    const std::uint64_t lba = state->io.lba;
    const std::uint64_t end = lba + state->io.sectors;
    const std::uint64_t first_lpn = lba / sectorsPerPage_;
    const std::uint64_t last_lpn = (end - 1) / sectorsPerPage_;

    for (std::uint64_t lpn = first_lpn; lpn <= last_lpn; ++lpn) {
        std::uint64_t page_start = lpn * sectorsPerPage_;
        std::uint32_t s0 = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(lba, page_start) - page_start);
        std::uint32_t s1 = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(end, page_start + sectorsPerPage_) -
            page_start);
        std::uint64_t host_addr =
            state->io.dramAddr +
            (page_start + s0 - lba) * cfg_.sectorBytes;
        ++state->outstanding;
        issuePagePiece(state, lpn, s0, s1 - s0, host_addr);
    }
    state->issuedAll = true;
    if (state->outstanding == 0) { // cannot happen with sectors >= 1
        --inFlight_;
        if (state->io.onComplete)
            state->io.onComplete(true);
    }
}

void
Hic::issuePagePiece(std::shared_ptr<IoState> state, std::uint64_t lpn,
                    std::uint32_t first_sector,
                    std::uint32_t sector_count, std::uint64_t host_addr)
{
    dram::DramBuffer &dram = ftl_.backend().backendDram();
    const bool full = first_sector == 0 && sector_count == sectorsPerPage_;
    const std::uint32_t byte_off = first_sector * cfg_.sectorBytes;
    const std::uint32_t byte_len = sector_count * cfg_.sectorBytes;

    auto done = [this, state](bool ok) { pieceDone(state, ok); };

    // FTL calls run under the host command's span so the FTL spans
    // parent correctly even when deferred by page locks or scratch
    // waits (the lambdas carry the id; ScopedCtx installs it).
    const obs::SpanId span = state->span;

    if (!state->io.write) {
        // READ. Unwritten pages read back as zeros, as real devices
        // guarantee deterministic data for unwritten LBAs.
        if (!ftl_.isMapped(lpn)) {
            std::vector<std::uint8_t> zeros(byte_len, 0);
            dram.write(host_addr, zeros);
            eq_.scheduleIn(0, [done] { done(true); }, "hic zero read");
            return;
        }
        if (full) {
            ++pageOps_;
            obs::Hub::ScopedCtx ctx(eq_.context(), span);
            ftl_.readPage(lpn, host_addr, done);
            return;
        }
        // Partial read: gather through a scratch slot.
        lockPage(lpn, [this, lpn, host_addr, byte_off, byte_len, done,
                       span] {
            withScratch([this, lpn, host_addr, byte_off, byte_len, done,
                         span](std::uint64_t scratch) {
                ++pageOps_;
                obs::Hub::ScopedCtx ctx(eq_.context(), span);
                ftl_.readPage(lpn, scratch, [this, lpn, host_addr,
                                             byte_off, byte_len, done,
                                             scratch](bool ok) {
                    if (ok) {
                        dram::DramBuffer &d =
                            ftl_.backend().backendDram();
                        std::vector<std::uint8_t> buf(byte_len);
                        d.read(scratch + byte_off, buf);
                        d.write(host_addr, buf);
                    }
                    releaseScratch(scratch);
                    unlockPage(lpn);
                    done(ok);
                });
            });
        });
        return;
    }

    // WRITE.
    if (full) {
        ++pageOps_;
        obs::Hub::ScopedCtx ctx(eq_.context(), span);
        ftl_.writePage(lpn, host_addr, done);
        return;
    }

    // Sub-page write: read-modify-write under the page lock.
    ++rmw_;
    lockPage(lpn, [this, lpn, host_addr, byte_off, byte_len, done,
                   span] {
        withScratch([this, lpn, host_addr, byte_off, byte_len, done,
                     span](std::uint64_t scratch) {
            auto overlay_and_write = [this, lpn, host_addr, byte_off,
                                      byte_len, done, scratch, span] {
                dram::DramBuffer &d = ftl_.backend().backendDram();
                std::vector<std::uint8_t> buf(byte_len);
                d.read(host_addr, buf);
                d.write(scratch + byte_off, buf);
                ++pageOps_;
                obs::Hub::ScopedCtx ctx(eq_.context(), span);
                ftl_.writePage(lpn, scratch, [this, lpn, done,
                                              scratch](bool ok) {
                    releaseScratch(scratch);
                    unlockPage(lpn);
                    done(ok);
                });
            };

            if (ftl_.isMapped(lpn)) {
                ++pageOps_;
                obs::Hub::ScopedCtx ctx(eq_.context(), span);
                ftl_.readPage(lpn, scratch, [this, lpn, done, scratch,
                                             overlay_and_write](bool ok) {
                    if (!ok) {
                        releaseScratch(scratch);
                        unlockPage(lpn);
                        done(false);
                        return;
                    }
                    overlay_and_write();
                });
            } else {
                std::vector<std::uint8_t> zeros(ftl_.pageBytes(), 0);
                ftl_.backend().backendDram().write(scratch, zeros);
                overlay_and_write();
            }
        });
    });
}

} // namespace babol::host
