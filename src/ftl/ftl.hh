/**
 * @file
 * A page-mapped Flash Translation Layer.
 *
 * The FTL is a substrate in this reproduction (the paper swaps only the
 * Storage Controller), so it is deliberately conventional:
 *
 *  - an LPN→PPN map with way-striped allocation (sequential LPNs land
 *    on successive chips, like the Cosmos+ firmware),
 *  - erase-before-use block management with per-chip write queues,
 *  - greedy garbage collection (min-valid victim),
 *  - dynamic wear levelling (allocation prefers the coldest free
 *    block) plus optional static wear levelling (cold valid data is
 *    migrated off low-erase-count blocks when the wear spread exceeds
 *    a threshold),
 *  - an optional DRAM write buffer that coalesces bursty writes and
 *    acknowledges them only once the flash program commits,
 *  - bad-block retirement: blocks whose erase or program fails are
 *    taken out of service and in-flight writes re-routed, and
 *  - crash recovery: every program carries an OOB record (see oob.hh)
 *    and mount() rebuilds the entire mapping state by scanning those
 *    records back through the real channel path — no side-channel
 *    tables survive a power cycle, because on a real device none do.
 *
 * It runs on any FlashBackend — a single channel controller or a
 * multi-channel Ssd.
 */

#ifndef BABOL_FTL_FTL_HH
#define BABOL_FTL_FTL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/flash_backend.hh"
#include "ftl/oob.hh"
#include "obs/hub.hh"
#include "sim/sim_object.hh"

namespace babol::ftl {

/** One grown-defect entry: a block retired after a program or erase
 *  failure. The table is durable on flash — retirements are journalled
 *  through the OOB records of subsequent programs and rebuilt by
 *  mount(); this struct is export-only introspection. */
struct GrownDefect
{
    std::uint32_t chip = 0;
    std::uint32_t block = 0;
};

struct FtlConfig
{
    /** Blocks per chip the FTL manages (a slice keeps tests fast). */
    std::uint32_t blocksPerChip = 64;

    /** Reserve this fraction of blocks as over-provisioning for GC. */
    double overprovision = 0.125;

    /** Start GC when a chip's free-block pool drops this low. */
    std::uint32_t gcLowWater = 2;

    /** Give up on a host write after this many bad-block reroutes. */
    std::uint32_t maxWriteRetries = 3;

    /**
     * DRAM write-buffer slots (0 = write-through, the historical
     * behaviour). Buffered writes coalesce by LPN and are acknowledged
     * only when their flash program commits — a power cut may lose
     * buffered-but-unacknowledged data, never acknowledged data.
     */
    std::uint32_t writeBufferPages = 0;

    /** Flush a non-empty write buffer after this long even if it never
     *  fills (µs of simulated time). */
    std::uint64_t writeBufferFlushUs = 200;

    /**
     * Static wear levelling: when a chip's erase-count spread
     * (max − min over live blocks) exceeds this, migrate the coldest
     * block's valid data so the block re-enters the free pool.
     * 0 disables static WL (dynamic WL still applies).
     */
    std::uint32_t wearSpreadThreshold = 0;

    /**
     * DRAM staging pages reserved for the reliability subsystem
     * (patrol-scrub reads, refresh moves, RAIN parity accumulation and
     * rebuild). 0 = reliability services disabled (the historical
     * layout). Slot 0 is the FTL's own refresh staging page; the
     * src/reliability classes divide the rest.
     */
    std::uint32_t reliabilityScratchPages = 0;
};

/** A physical page address. */
struct Ppa
{
    std::uint32_t chip = 0;
    std::uint32_t block = 0;
    std::uint32_t page = 0;
};

class PageFtl : public SimObject
{
  public:
    using Callback = std::function<void(bool ok)>;

    PageFtl(EventQueue &eq, const std::string &name,
            core::FlashBackend &backend, FtlConfig cfg = {});
    ~PageFtl(); // out of line: MountScan is incomplete here

    /** Logical pages this FTL exposes. */
    std::uint64_t logicalPages() const { return logicalPages_; }

    std::uint32_t pageBytes() const { return pageBytes_; }

    /**
     * Rebuild the mapping state from the per-page OOB records: the L2P
     * map, valid bitmaps, erase counts, and the grown-defect table.
     * Every page is fetched with a real OOB_READ through the channel —
     * the scan costs simulated time and energy like any other I/O.
     * Call on a freshly constructed FTL before any host traffic; @p cb
     * fires when the scan completes.
     */
    void mount(Callback cb);

    /** Read one logical page into DRAM at @p dram_addr. */
    void readPage(std::uint64_t lpn, std::uint64_t dram_addr, Callback cb);

    /** Write one logical page from DRAM at @p dram_addr. */
    void writePage(std::uint64_t lpn, std::uint64_t dram_addr, Callback cb);

    /** Force the write buffer out to flash; @p cb fires once every
     *  previously buffered write has been acknowledged. */
    void flush(Callback cb);

    /** True when the LPN has ever been written. */
    bool isMapped(std::uint64_t lpn) const;

    /** The flash back end this FTL drives. */
    core::FlashBackend &backend() { return backend_; }

    // --- Reliability services (patrol scrubber / RAIN manager) ---
    //
    // The media-decay subsystem in src/reliability attaches to the FTL
    // through these services and the hook points below; the FTL itself
    // stays free of any RAIN/scrub policy. All services require
    // FtlConfig::reliabilityScratchPages > 0.

    std::uint32_t chipCount() const
    {
        return static_cast<std::uint32_t>(chips_.size());
    }
    std::uint32_t blocksPerChip() const { return cfg_.blocksPerChip; }
    std::uint32_t pagesPerBlock() const { return pagesPerBlock_; }

    /** Host I/O in flight (reads, writes, pinned buffer flushes) — the
     *  scrubber's idle test. */
    bool hostBusy() const
    {
        return hostInflight_ != 0 || wbOutstanding_ != 0;
    }

    /** Host reads served from this block since its last erase (the
     *  FTL-level read-disturb counter the scrubber trips on). */
    std::uint64_t blockHostReads(std::uint32_t chip,
                                 std::uint32_t block) const
    {
        return chips_[chip].blocks[block].hostReads;
    }

    /** The LPN mapped at a physical page, or nullopt when the page is
     *  dead/unwritten (reverse-map lookup for the patrol cursor). */
    std::optional<std::uint64_t> pageLpnAt(std::uint32_t chip,
                                           std::uint32_t block,
                                           std::uint32_t page) const;

    /** Where an LPN currently lives, or nullopt when unmapped. */
    std::optional<Ppa> mappedPpa(std::uint64_t lpn) const;

    /** Lowest DRAM address the FTL reserves: its staging pages fill
     *  [reservedDramBase(), DRAM end), the host owns what lies below. */
    std::uint64_t reservedDramBase() const
    {
        return reliabilityScratchBase_;
    }

    /** DRAM address of reliability staging slot @p slot. */
    std::uint64_t reliabilityScratchAddr(std::uint32_t slot) const;

    /** Raw physical-page read into DRAM, full OpResult delivered to the
     *  caller (patrol reads want the ECC near-miss margin, rebuilds
     *  want hard failure detail). */
    void readPhysical(std::uint32_t chip, std::uint32_t block,
                      std::uint32_t page, std::uint64_t dram_addr,
                      std::function<void(const core::OpResult &)> cb);

    /**
     * Relocate one live LPN (read + rewrite, keeping its seq so a
     * racing host overwrite still wins). Requests are serialized
     * through the FTL's refresh staging page. @p preferred_chip steers
     * the destination (-1 = round-robin) — the scrubber points it at
     * the coldest chip, which is what spreads wear across chips.
     */
    void refreshLpn(std::uint64_t lpn, Callback cb,
                    std::int32_t preferred_chip = -1);

    /**
     * Rewrite @p lpn from DRAM (RAIN rebuild output), but only when the
     * map still points at @p expected — a host overwrite that landed
     * mid-rebuild wins. Keeps the LPN's seq, like refreshLpn.
     */
    void rewritePage(std::uint64_t lpn, const Ppa &expected,
                     std::uint64_t dram_addr, Callback cb,
                     std::int32_t preferred_chip = -1);

    /**
     * Program one RAIN parity page. Parity never enters the L2P map:
     * the page is carried with OobState::RainParity and lpn=stripe id,
     * and mount-scan skips it. @p avoid_chip_mask excludes the stripe's
     * member chips so one die loss never takes two stripe units.
     */
    void writeParity(std::uint64_t stripe_id, std::uint64_t dram_addr,
                     std::uint32_t avoid_chip_mask,
                     std::function<void(bool ok, Ppa at)> cb);

    /** Chip with the least total wear among live chips not in
     *  @p exclude_mask, or -1 when none qualify. */
    std::int32_t coldestChip(std::uint32_t exclude_mask = 0) const;

    /** True once @p chip has been declared dead (die failure). */
    bool chipDead(std::uint32_t chip) const
    {
        return chip < 64 && (deadChipMask_ >> chip) & 1;
    }

    /**
     * Take a chip out of service: allocation skips it, its queued
     * writes re-route, GC/WL stop touching it. Called by the harness
     * right after FaultEngine::failDie, and by the FTL itself when the
     * engine reports a die-wide dead region under a failing op.
     */
    void markChipDead(std::uint32_t chip);

    // --- Reliability hook points (set once, before traffic) ---

    /** Every committed data program (map installed / move landed):
     *  the RAIN manager folds the page into its open stripe here. */
    std::function<void(const Ppa &at, std::uint64_t lpn,
                       std::uint64_t dram_addr, OobState state)>
        onProgramCommitted;

    /** Async gate before any block erase. The RAIN manager refreshes
     *  live members of stripes touching the block, then calls
     *  @p proceed to let the erase go. Unset = erase immediately. */
    std::function<void(std::uint32_t chip, std::uint32_t block,
                       std::function<void()> proceed)>
        beforeErase;

    /** Last-resort read repair: a host/refresh read failed all retries.
     *  The RAIN manager XOR-rebuilds into @p dram_addr and reports via
     *  @p done. Unset (or done(false)) = the read is lost. */
    std::function<void(std::uint64_t lpn, Ppa at, std::uint64_t dram_addr,
                       Callback done)>
        onReadFailed;

    /** A chip was just declared dead — the RAIN manager starts its
     *  background rebuild sweep here. */
    std::function<void(std::uint32_t chip)> onChipDead;

    // --- Stats / introspection ---
    std::uint64_t hostReads() const { return hostReads_; }
    std::uint64_t hostWrites() const { return hostWrites_; }
    std::uint64_t gcRuns() const { return gcRuns_; }
    std::uint64_t gcPageMoves() const { return gcPageMoves_; }
    std::uint64_t wearLevelRuns() const { return wlRuns_; }
    std::uint64_t wearLevelPageMoves() const { return wlPageMoves_; }
    std::uint64_t erasesIssued() const { return erases_; }
    std::uint64_t blocksRetired() const { return retired_; }
    std::uint64_t mountPagesScanned() const { return mountPagesScanned_; }
    std::uint64_t mountTornPages() const { return mountTornPages_; }
    std::uint64_t writeBufferHits() const { return wbHits_; }
    std::uint64_t writeBufferFlushes() const { return wbFlushes_; }
    std::uint64_t readFailures() const { return readFailures_; }
    std::uint64_t dataLoss() const { return dataLoss_; }
    std::uint64_t refreshMoves() const { return refreshes_; }

    /** The current grown-defect table: every bad block, both recovered
     *  ones and those retired during this mount. */
    std::vector<GrownDefect> exportGrownDefects() const;

    /** Spread of per-block erase counts on a chip (wear levelling). */
    std::uint32_t maxEraseCount(std::uint32_t chip) const;
    std::uint32_t minFreeEraseCount(std::uint32_t chip) const;
    std::uint32_t wearSpread(std::uint32_t chip) const;

  private:
    static constexpr std::uint64_t kUnmapped = ~std::uint64_t(0);

    struct BlockInfo
    {
        std::vector<std::uint64_t> pageLpn; //!< lpn per page (reverse map)
        std::uint32_t written = 0;          //!< pages reserved for writes
        std::uint32_t programmed = 0;       //!< programs actually landed
        std::uint32_t valid = 0;            //!< still-mapped pages
        std::uint32_t eraseCount = 0;
        /** Host reads since the last erase (scrub disturb trigger). */
        std::uint64_t hostReads = 0;
        bool erased = false;
        bool bad = false;
    };

    struct PendingWrite
    {
        std::uint64_t lpn;
        std::uint64_t dramAddr;
        Callback cb;
        std::uint32_t retries = 0;
        OobState state = OobState::HostWrite;

        /** The write's sequence number, fixed at enqueue time so seq
         *  order equals host-issue order even when generations of one
         *  LPN queue on different chips. Host writes draw a fresh seq;
         *  GC/WL moves reuse the seq of the copy being relocated, so a
         *  concurrent host overwrite (which holds a younger seq) beats
         *  the move both in the live map and in mount-time arbitration
         *  — a move can never resurrect stale data. */
        std::uint64_t moveSeq = 0;

        /** FTL-write span; stays open across program retries. */
        obs::SpanId span = obs::kNoSpan;

        /** RAIN parity writes only (state == RainParity): where the
         *  parity landed. Parity bypasses the L2P map entirely. */
        std::function<void(bool ok, Ppa at)> parityCb;
    };

    struct ChipState
    {
        std::vector<BlockInfo> blocks;
        std::deque<std::uint32_t> freeBlocks;
        std::deque<PendingWrite> writeQueue;
        std::int32_t activeBlock = -1;
        bool erasePending = false;
        bool gcInProgress = false;
        bool wlInProgress = false;
        /** The active block was carved from the last free block for a
         *  GC/WL move: host writes keep out until the migration's
         *  erase replenishes the pool, or the moves themselves would
         *  run out of pages. */
        bool activeReserved = false;

        /** Blocks retired but not yet journalled to flash: each entry
         *  rides in the OOB record of the chip's next program. */
        std::deque<std::uint32_t> defectJournal;

        /** Blocks erased but not yet reprogrammed, with their post-
         *  erase counts: journalled through the OOB of subsequent
         *  programs (like defects) so a free block's erase count
         *  survives a remount — the ROADMAP-flagged eraseCount-0 gap. */
        std::deque<std::pair<std::uint32_t, std::uint32_t>> eraseJournal;
    };

    /** One write-buffer slot (a page-sized DRAM staging region). */
    struct BufferSlot
    {
        std::uint64_t lpn = kUnmapped;
        bool flushing = false; //!< program in flight; slot pinned
        std::vector<Callback> cbs;
    };

    /** Transient per-mount scan state (freed when the scan finishes). */
    struct MountScan;

    void allocateAndWrite(std::uint64_t lpn, std::uint64_t dram_addr,
                          Callback cb, std::uint32_t retries = 0,
                          obs::SpanId span = obs::kNoSpan,
                          OobState state = OobState::HostWrite,
                          std::uint64_t move_seq = 0,
                          std::int32_t preferred_chip = -1);
    void enqueueWrite(PendingWrite pw, std::int32_t preferred_chip);
    void pumpWrites(std::uint32_t chip);
    bool ensureActiveBlock(std::uint32_t chip, bool for_move = false);
    bool gcReclaimable(std::uint32_t chip) const;
    void startEraseBeforeUse(std::uint32_t chip, std::uint32_t block);
    void retireBlock(std::uint32_t chip, std::uint32_t block);
    void maybeStartGc(std::uint32_t chip);
    void maybeStartWearLevel(std::uint32_t chip);
    void moveNext(std::uint32_t chip, std::uint32_t victim,
                  std::uint32_t page, OobState mode);
    void invalidate(std::uint64_t lpn);

    // Write-buffer plumbing.
    std::uint64_t slotAddr(std::uint32_t slot) const;
    void bufferWrite(std::uint64_t lpn, std::uint64_t dram_addr,
                     Callback cb);
    void flushBuffer();
    std::uint32_t bufferedCount() const;

    // Mount plumbing.
    void mountScanNext(std::uint32_t chip);
    void finishMount();

    // Reliability plumbing.
    struct RefreshJob
    {
        std::uint64_t lpn;
        Callback cb;
        std::int32_t preferredChip;
    };
    void pumpRefresh();
    void noteChipFault(std::uint32_t chip);
    void pushEraseJournal(std::uint32_t chip, std::uint32_t block);

    core::FlashBackend &backend_;
    FtlConfig cfg_;
    std::uint32_t pageBytes_;
    std::uint32_t pagesPerBlock_;
    std::uint32_t oobBytes_;
    std::uint64_t logicalPages_;

    std::vector<std::uint64_t> map_; //!< lpn -> packed ppa or kUnmapped
    std::vector<std::uint64_t> mapSeq_; //!< seq that installed map_[lpn]
    std::vector<ChipState> chips_;
    std::uint32_t writeCursor_ = 0; //!< round-robin chip for striping

    /** Global program sequence number (ties broken by construction:
     *  every program gets a fresh one; mount resumes past the max). */
    std::uint64_t seq_ = 1;

    /** Scratch DRAM region for GC/WL page moves (top of the buffer). */
    std::uint64_t gcScratchAddr_;

    // Write buffer state.
    std::vector<BufferSlot> wbSlots_;
    std::uint64_t wbBase_ = 0; //!< DRAM address of slot 0
    bool wbTimerArmed_ = false;
    Callback wbFlushCb_; //!< pending flush() waiter
    std::uint32_t wbOutstanding_ = 0; //!< slots mid-program

    std::unique_ptr<MountScan> mountScan_;

    // Reliability state.
    std::uint64_t deadChipMask_ = 0;
    std::uint32_t hostInflight_ = 0;
    std::uint64_t reliabilityScratchBase_ = 0;
    std::deque<RefreshJob> refreshQueue_;
    bool refreshBusy_ = false;
    std::uint64_t readFailures_ = 0;
    std::uint64_t dataLoss_ = 0;
    std::uint64_t refreshes_ = 0;

    std::uint64_t hostReads_ = 0;
    std::uint64_t hostWrites_ = 0;
    std::uint64_t gcRuns_ = 0;
    std::uint64_t gcPageMoves_ = 0;
    std::uint64_t wlRuns_ = 0;
    std::uint64_t wlPageMoves_ = 0;
    std::uint64_t erases_ = 0;
    std::uint64_t retired_ = 0;
    std::uint64_t mountPagesScanned_ = 0;
    std::uint64_t mountTornPages_ = 0;
    std::uint64_t wbHits_ = 0;
    std::uint64_t wbFlushes_ = 0;

    static std::uint64_t packPpa(const Ppa &p);
    static Ppa unpackPpa(std::uint64_t packed);

    std::uint32_t obsTrack_ = 0;
    std::uint32_t lblRead_ = 0;
    std::uint32_t lblWrite_ = 0;
    std::uint32_t lblMount_ = 0;

    /** Last member: deregisters before the stats it references die. */
    obs::MetricsGroup metrics_;
};

} // namespace babol::ftl

#endif // BABOL_FTL_FTL_HH
