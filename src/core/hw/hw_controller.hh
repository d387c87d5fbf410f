/**
 * @file
 * Hardware-baseline channel controllers.
 *
 * Two flavours, mirroring the paper's comparison points:
 *  - "hw-sync"  — a synchronous controller in the style of Qiu et
 *    al. [50]: per-LUN operation FSMs wait for the channel to become
 *    free, then the arbiter selects one and it produces its next
 *    waveform on the spot (a small arbitration dead time models the
 *    react-to-vacancy design).
 *  - "hw-async" — the Cosmos+ OpenSSD controller [25]: segments are
 *    prepared while the bus is busy, so the next grant issues with no
 *    dead time.
 *
 * Both run entirely "in hardware": no CPU cycles are charged, readiness
 * is observed on the R/B# pin rather than by status polling, and the
 * operations are the hard-coded FSMs of hw_ops.cc — fast, rigid, and
 * exactly as laborious to extend as the paper complains.
 */

#ifndef BABOL_CORE_HW_HW_CONTROLLER_HH
#define BABOL_CORE_HW_HW_CONTROLLER_HH

#include <memory>

#include "../controller.hh"
#include "sim/inline_vec.hh"
#include "sim/slot_pool.hh"

namespace babol::core {

class HwOpFsm;

class HwController : public ChannelController
{
  public:
    /**
     * @param synchronous  true for the [50]-style design (arbitration
     *                     dead time on every grant), false for the
     *                     Cosmos+-style asynchronous design
     */
    HwController(EventQueue &eq, const std::string &name,
                 ChannelSystem &sys, bool synchronous);
    ~HwController() override;

    const char *
    flavorName() const override
    {
        return synchronous_ ? "hw-sync" : "hw-async";
    }

    bool synchronous() const { return synchronous_; }

    /** R/B#-to-controller synchronizer delay. */
    Tick rbSyncDelay() const { return rbSyncDelay_; }

    /**
     * Read-retry budget for the baked-in READ FSM. Default 0: a classic
     * fixed-function controller treats an uncorrectable page as a hard
     * error. Raising it models an RTL respin that added the retry loop.
     */
    std::uint32_t maxReadRetries() const { return maxReadRetries_; }
    void setMaxReadRetries(std::uint32_t n) { maxReadRetries_ = n; }

    // --- Services the operation FSMs use ---

    /**
     * Ask the arbiter for the channel; when granted, @p seg goes on the
     * wires and @p done fires at segment end.
     */
    void issueSegment(std::uint32_t chip, chan::Segment &&seg,
                      chan::SegmentDone done);

    /** A data-in buffer for the next segment's payload: one the bus
     *  handed back from an earlier segment, so programs recycle their
     *  page buffers instead of allocating them. */
    std::vector<std::uint8_t> recycledPayload();

    /** The FSMs' segment labels, formatted once per chip. */
    struct Labels
    {
        explicit Labels(std::uint32_t chips);

        obs::ChipLabels readCa, readXfer, readRetry, oobReadCa, oobReadXfer,
            program, programStatus, erase, eraseStatus;
    };
    const Labels &labels() const { return labels_; }

    /** An operation FSM finished; frees the chip and reports upstream. */
    void fsmDone(std::uint32_t chip, OpResult result);

  protected:
    void submitNow(FlashRequest req) override;

  private:
    void tryStart(std::uint32_t chip);
    void pumpGrants();
    void grantNext();

    bool synchronous_;
    Tick arbitrationDeadTime_;
    Tick rbSyncDelay_;
    std::uint32_t maxReadRetries_ = 0;

    struct GrantRequest
    {
        chan::Segment segment;
        chan::SegmentDone done;
        bool shortControl = false; //!< no bulk data burst in the segment
    };

    bool grantFrom(bool control_only);

    const Labels labels_;
    std::vector<RingQueue<FlashRequest>> pending_;
    /** The FSM running on each chip, in storage reused op after op. */
    std::vector<InPlaceSlot<HwOpFsm>> active_;
    /** Each chip's finished result, waiting for the deferred teardown. */
    std::vector<OpResult> doneResult_;
    std::vector<RingQueue<GrantRequest>> grants_;
    /** Completion of the granted segment (one is on the wires at a
     *  time), kept here so the bus callback captures only `this`. */
    chan::SegmentDone grantDone_;
    /** Data-in buffers the bus handed back, for the next programs'
     *  segments (at most one per waiting grant). */
    std::vector<std::vector<std::uint8_t>> sparePayloads_;
    std::uint32_t grantCursor_ = 0;
    bool granting_ = false;
};

} // namespace babol::core

#endif // BABOL_CORE_HW_HW_CONTROLLER_HH
