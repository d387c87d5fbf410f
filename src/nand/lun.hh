/**
 * @file
 * Behavioural model of one NAND Logical Unit (LUN).
 *
 * The LUN consumes the same dialog a real die sees on the ONFI bus —
 * command latches, address latches, and data bursts — and decodes them
 * with an explicit state machine. It owns a FlashArray (the cells), one
 * data register and one cache register per plane, a status byte, and the
 * busy timers that make operations take real (simulated) time.
 *
 * Protocol misuse is detected aggressively: issuing a non-status command
 * to a busy LUN, reading data before the mandated waits (tWHR, tCCS,
 * tADL, tRR) elapse, or driving data out of a LUN with nothing to say all
 * panic. This is how the model verifies that a controller's μFSMs honour
 * the timing categories described in the paper's §IV-B.
 */

#ifndef BABOL_NAND_LUN_HH
#define BABOL_NAND_LUN_HH

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "flash_array.hh"
#include "geometry.hh"
#include "obs/hub.hh"
#include "obs/power/power.hh"
#include "onfi.hh"
#include "sim/inline_callback.hh"
#include "sim/sim_object.hh"
#include "timing.hh"

namespace babol::nand {

/** What the array is (or was last) busy doing. */
enum class ArrayOp : std::uint8_t {
    None,
    Read,
    Program,
    Erase,
    Reset,
    SetFeatures,
    GetFeatures,
    ParamPage,
};

const char *toString(ArrayOp op);

class Lun : public SimObject
{
  public:
    /**
     * @param lun_index  this LUN's index within its package
     * @param seed       RNG seed (tR variation, error injection)
     */
    Lun(EventQueue &eq, const std::string &name, const PackageConfig &cfg,
        std::uint32_t lun_index, std::uint64_t seed);

    // --- Bus-facing interface (driven by the Package / channel) ---

    /** A command byte was latched (called at the latch instant). */
    void commandLatch(std::uint8_t cmd);

    /** An address byte was latched. */
    void addressLatch(std::uint8_t byte);

    /**
     * A data-in burst completed; @p bytes were shifted into the LUN.
     * @p burst_start is when the first cycle began (for tADL checks).
     */
    void dataIn(std::span<const std::uint8_t> bytes, Tick burst_start);

    /**
     * Fill @p out from the LUN for a data-out burst beginning at
     * @p burst_start. In status-output mode every byte is the status
     * register; otherwise bytes stream from the selected plane's cache
     * register at the column pointer (which advances).
     */
    void dataOut(std::span<std::uint8_t> out, Tick burst_start);

    /** True when this LUN would currently drive DQ on a read cycle. */
    bool outputActive() const;

    /** True when the last fully-latched address targets this LUN. */
    bool addressedToMe() const { return addressedLun_ == lunIndex_; }

    // --- Observability ---

    /** ONFI status byte (WP|RDY|ARDY|CSP|FAILC|FAIL). */
    std::uint8_t statusByte() const;

    /** RDY bit: can the LUN accept a new operation? */
    bool ready() const { return rdy_; }

    /** ARDY bit: is the array idle (no background cache work)? */
    bool arrayReady() const { return ardy_; }

    /** Tick at which the current array op completes (R/B# pin model). */
    Tick busyUntil() const { return busyUntil_; }

    /** Sideband for the controller ECC model: flipped bit positions of
     *  the page currently in the selected plane's cache register. */
    const std::vector<std::uint32_t> &cacheRegisterFlips() const;

    /** The cells behind this LUN (tests, FTL bootstrap). */
    FlashArray &array() { return array_; }
    const FlashArray &array() const { return array_; }

    /** Currently configured read-retry level. */
    std::uint32_t retryLevel() const { return retryLevel_; }

    /** Currently configured data interface. */
    DataInterface dataInterface() const { return dataInterface_; }

    /** Configured NV-DDR2 rate in MT/s (valid when not SDR). */
    std::uint32_t transferMT() const { return transferMT_; }

    /** Column pointer for the next data byte. */
    std::uint32_t columnPointer() const { return column_; }

    /** What the array is busy with, if anything. */
    ArrayOp busyOp() const { return busyOp_; }

    /** This LUN's power rail (inert unless the model was enabled). */
    obs::power::Meter &powerMeter() { return power_; }

    /**
     * Simulation shortcut: place the LUN directly in a configured data
     * interface, as if the boot-time SET FEATURES sequence had already
     * run. Production bring-up performs the real SDR-mode sequence (see
     * the new_package_bringup example); experiment harnesses use this to
     * skip the few microseconds of boot traffic.
     */
    void
    bootstrapInterface(DataInterface di, std::uint32_t mt)
    {
        dataInterface_ = di;
        transferMT_ = mt;
    }

    /** True when a program/erase is parked by VENDOR SUSPEND. */
    bool suspended() const { return suspended_; }

    /**
     * Simulated power cut. Cancels every pending array event, drops the
     * volatile page registers, and — the part that matters — tears any
     * PAGE PROGRAM still in flight: the interrupted page's cells end up
     * holding deterministic garbage (see FlashArray::tearPage), so a
     * later mount scan sees a consumed page whose OOB record fails its
     * CRC. The LUN object is normally discarded right after; only the
     * array state survives into the remount world via
     * FlashArray::copyStateFrom.
     */
    void powerCut();

    /** Counters for tests: completed array ops by kind. */
    std::uint64_t completedReads() const { return completedReads_; }
    std::uint64_t completedPrograms() const { return completedPrograms_; }
    std::uint64_t completedErases() const { return completedErases_; }

  private:
    /** Decode-FSM states: what the next bus cycle is expected to be. */
    enum class Decode : std::uint8_t {
        Idle,
        ReadAddr,       //!< collecting 5 addr cycles after 0x00
        ReadConfirm,    //!< awaiting 0x30/0x31/0x32
        ChangeColAddr,  //!< collecting 2 col cycles after 0x05
        ChangeColEnhAddr, //!< collecting 5 cycles after 0x06
        ChangeColConfirm, //!< awaiting 0xE0
        ProgramAddr,    //!< collecting 5 addr cycles after 0x80
        ProgramData,    //!< data-in phase; awaiting 0x10/0x15/0x11/0x85
        ChangeWriteColAddr, //!< 2 col cycles after 0x85 within a program
        EraseAddr,      //!< collecting 3 row cycles after 0x60
        EraseConfirm,   //!< awaiting 0x60 (queue more) or 0xD0
        FeatAddr,       //!< 1 feature-address cycle after 0xEF/0xEE
        FeatDataIn,     //!< 4 parameter bytes (SET FEATURES)
        IdAddr,         //!< 1 addr cycle after 0x90
        ParamAddr,      //!< 1 addr cycle after 0xEC
        StatusEnhAddr,  //!< 3 row cycles after 0x78
    };

    /**
     * Where data-out bytes come from when not in status mode. READ
     * STATUS overlays this (statusMode_) rather than replacing it, so a
     * 00h re-enable returns to the previous source — as real parts do.
     */
    enum class Output : std::uint8_t {
        None,
        Register, //!< selected plane's cache register
        Id,
        ParamPage,
        Features,
        UniqueId,
    };

    struct Plane
    {
        std::vector<std::uint8_t> cacheReg; //!< interface-facing register
        std::vector<std::uint8_t> dataReg;  //!< array-facing register
        std::vector<std::uint32_t> cacheFlips;
        std::vector<std::uint32_t> dataFlips;
        bool cacheValid = false;
        bool dataValid = false;
        /** The data register's content is the cache register's: after
         *  a plain read both hold the page, so it is stored once, in
         *  the cache register, until one of them is written. */
        bool dataInCache = false;
        RowAddress dataRow;
    };

    // Decode helpers (one per operation family).
    void latchWhileIdle(std::uint8_t cmd);
    void confirmRead(std::uint8_t cmd);
    void confirmErase(std::uint8_t cmd);
    void finishProgramPhase(std::uint8_t cmd);
    void handleSuspend();
    void handleResume();
    void completeAddressPhase();

    // Array-operation plumbing.
    /** Completion of an array op (runs when the LUN turns ready). */
    using ArrayDone = InlineFunction<void()>;

    /** @return false when the op was refused (LUN busy, collector
     *  mode); @p completion is then dropped. */
    bool startArrayOp(ArrayOp op, Tick duration, ArrayDone completion);
    void completeArrayOp();
    /** Start the read queued in multiPlaneReadQueue_ (consuming it). */
    void startRead();
    void startCacheTurn(std::optional<RowAddress> next);
    void startProgram(bool cache_mode);
    void startErase();
    void loadPageIntoPlane(const RowAddress &row);
    /** Give the data register its own copy before either register of
     *  @p pl is written (ends a plain read's shared storage). */
    void splitMirror(Plane &pl);
    Tick actualReadTime(const RowAddress &row);

    /** Apply any armed fault plan to a freshly-loaded page: extra bit
     *  flips (bit-error burst / read-window drift) land in the first
     *  ECC codeword so the corrector demonstrably gives up. */
    void injectReadFaults(PageLoad &load, std::uint32_t block,
                          std::uint32_t page);

    // Timing-guard plumbing.
    void requireIdleFor(std::uint8_t cmd) const;

    /** A protocol/timing guard tripped: hand the structured diagnostic
     *  to the online auditor when it is armed, else panic (the legacy
     *  sanitizer behaviour). */
    void violation(const char *rule, std::string msg) const;

    /** Report (when auditing) an array op scheduled to complete before
     *  @p floor — a tripwire for duration-computation regressions. */
    void auditOpFloor(const char *rule, Tick dur, Tick floor) const;
    void guardDataOutAt(Tick t) { earliestDataOut_ = std::max(earliestDataOut_, t); }
    void guardStatusOutAt(Tick t) { earliestStatusOut_ = std::max(earliestStatusOut_, t); }
    void guardDataInAt(Tick t) { earliestDataIn_ = std::max(earliestDataIn_, t); }

    Plane &selectedPlane() { return planes_[selectedPlane_]; }
    const Plane &selectedPlane() const { return planes_[selectedPlane_]; }

    PackageConfig cfg_;
    std::uint32_t lunIndex_;
    FlashArray array_;
    Rng rng_;

    // Decode state.
    Decode decode_ = Decode::Idle;
    std::uint8_t pendingCmd_ = 0;
    std::vector<std::uint8_t> addrBytes_;
    std::uint32_t addrBytesExpected_ = 0;
    std::uint32_t addressedLun_ = 0;
    bool slcPrefixArmed_ = false;
    bool slcOpActive_ = false;

    // Data path.
    std::vector<Plane> planes_;
    std::uint32_t selectedPlane_ = 0;
    std::uint32_t column_ = 0;
    Output output_ = Output::None;
    bool statusMode_ = false; //!< READ STATUS output overlay active

    // Pending multi-part operations.
    RowAddress pendingRow_;
    std::uint32_t pendingColumn_ = 0;
    std::vector<RowAddress> multiPlaneReadQueue_;
    /** Rows of the read the array is sensing (its completion loads
     *  them); swapped with multiPlaneReadQueue_ so neither reallocates. */
    std::vector<RowAddress> readRows_;
    /** The array's output for loadPageIntoPlane(); its buffers trade
     *  places with the data register's, so a page read copies the
     *  stored page once and allocates nothing. */
    PageLoad sensed_;
    std::vector<RowAddress> multiPlaneProgramQueue_;
    std::vector<RowAddress> programRows_;  //!< as readRows_, for programs
    std::vector<std::uint32_t> eraseQueue_;
    std::vector<std::uint32_t> eraseBlocks_; //!< as readRows_, for erases
    std::optional<RowAddress> cacheNextRow_;
    bool cacheReadArmed_ = false; //!< array is pre-reading cacheNextRow_

    // Busy / status state.
    bool rdy_ = true;
    bool ardy_ = true;
    bool failBit_ = false;
    bool failCBit_ = false;
    ArrayOp busyOp_ = ArrayOp::None;
    Tick busyUntil_ = 0;
    EventHandle busyEvent_;
    ArrayDone completion_;
    bool suspended_ = false;
    Tick suspendRemaining_ = 0;
    ArrayOp suspendedOp_ = ArrayOp::None;
    ArrayDone suspendedCompletion_;

    /** Rows of the program currently committing in the array, kept so a
     *  power cut can tear exactly those pages. */
    std::vector<RowAddress> inflightProgramRows_;

    // Background (cache-op) array activity, tracked apart from the
    // interface-busy state so RDY and ARDY can diverge as in real parts.
    EventHandle bgEvent_;
    Tick bgUntil_ = 0;
    ArrayDone bgCompletion_;

    // Feature state.
    std::uint8_t featureAddr_ = 0;
    std::array<std::uint8_t, 4> featureData_{};
    std::uint32_t featureBytesSeen_ = 0;
    std::uint32_t retryLevel_ = 0;
    DataInterface dataInterface_ = DataInterface::Sdr;
    std::uint32_t transferMT_ = 0;
    std::array<std::uint8_t, 4> outputDrive_{};

    // Timing guards (earliest tick the named bus activity may begin).
    // Status output has its own guard: a poll already on the wires when
    // an array op completes must not trip the data-path guards.
    Tick earliestDataOut_ = 0;
    Tick earliestStatusOut_ = 0;
    Tick registerReadyAt_ = 0; //!< tRR after the array fills a register
    Tick earliestDataIn_ = 0;

    // Identification data.
    std::vector<std::uint8_t> idJedec_;
    std::vector<std::uint8_t> idOnfi_;
    std::vector<std::uint8_t> uniqueId_;
    std::vector<std::uint8_t> paramPage_;
    std::uint32_t idReadOffset_ = 0;

    // Stats.
    std::uint64_t completedReads_ = 0;
    std::uint64_t completedPrograms_ = 0;
    std::uint64_t completedErases_ = 0;

    // Tracing: busy periods are recorded as spans parented on the bus
    // segment (or controller op) whose command confirm started them.
    std::uint32_t obsTrack_ = 0;
    std::array<std::uint32_t, 8> busyLabel_{}; //!< per-ArrayOp label id
    obs::SpanId opParent_ = obs::kNoSpan;
    Tick opStart_ = 0;

    /** Deposit array-state energy for a busy window. */
    void chargeArray(ArrayOp op, Tick t0, Tick t1);

    /** Per-state energy rail (read/program/erase/misc + standby). */
    obs::power::Meter power_;

    /** Last member: deregisters before the stats it references die. */
    obs::MetricsGroup metrics_;
};

} // namespace babol::nand

#endif // BABOL_NAND_LUN_HH
