/**
 * @file
 * Hard-coded operation FSMs for the hardware baseline controllers.
 *
 * These classes transliterate what the Verilog of a fixed-function
 * controller encodes: every command byte, every address cycle, every
 * mandatory wait is written out by hand, per operation. Nothing is
 * shared with the μFSM instruction set — which is precisely why a
 * hardware controller needs hundreds of lines per operation (Table II)
 * and a respin for every new package quirk.
 */

#ifndef BABOL_CORE_HW_HW_OPS_HH
#define BABOL_CORE_HW_HW_OPS_HH

#include "../op_request.hh"
#include "hw_controller.hh"

namespace babol::core {

/** Base: one in-flight operation bound to one chip. */
class HwOpFsm
{
  public:
    HwOpFsm(HwController &ctrl, FlashRequest req)
        : ctrl_(ctrl), req_(std::move(req))
    {
        result_.startTick = ctrl_.curTick();
        result_.submitTick = req_.submitTick;
    }
    virtual ~HwOpFsm() = default;

    /** Kick the state machine. */
    virtual void start() = 0;

    const FlashRequest &request() const { return req_; }

    /** Hand the request back for completion (the FSM is done with it). */
    FlashRequest takeRequest() { return std::move(req_); }

  protected:
    /** Observe the R/B# pin: run @p fn once the LUN reports ready. */
    void waitReadyPin(std::function<void()> fn);

    void finish() { ctrl_.fsmDone(req_.chip, result_); }

    HwController &ctrl_;
    FlashRequest req_;
    OpResult result_;
};

/** Factory used by the controller's admission logic: builds the FSM for
 *  @p req in @p slot (the chip's reused storage). */
HwOpFsm &makeHwOpFsm(HwController &ctrl, FlashRequest req,
                     InPlaceSlot<HwOpFsm> &slot);

/** Storage one chip's slot needs: the largest FSM class. */
std::size_t hwOpFsmBytes();

/** READ: hard-coded CA wave, R/B# wait, hard-coded transfer wave. */
class HwReadFsm : public HwOpFsm
{
  public:
    using HwOpFsm::HwOpFsm;
    void start() override;

  private:
    enum class State : std::uint8_t {
        Idle,
        IssueCmdAddr,
        WaitArrayBusy,
        WaitArrayReady,
        IssueColumnChange,
        TransferData,
        DecodeEcc,
        IssueRetryFeatures, //!< SET FEATURES wave stepping the retry level
        WaitRetryReady,     //!< R/B# during the tFEAT level switch
        Done,
    };
    void step();

    State state_ = State::Idle;
    std::uint32_t retries_ = 0;
};

/** PROGRAM: hard-coded address+data wave, R/B# wait, status check. */
class HwProgramFsm : public HwOpFsm
{
  public:
    using HwOpFsm::HwOpFsm;
    void start() override;

  private:
    enum class State : std::uint8_t {
        Idle,
        FetchDmaData,
        IssueCmdAddrData,
        WaitArrayBusy,
        WaitArrayReady,
        CheckStatus,
        Done,
    };
    void step();

    State state_ = State::Idle;
    std::uint8_t statusByte_ = 0;
};

/**
 * Raw OOB-tail read (mount scan): the fourth hand-written FSM this
 * controller family has accumulated. A full READ waveform latched at
 * the OOB column, R/B# wait, then a raw DOUT burst handed to the DMA
 * with the ECC path bypassed.
 */
class HwOobReadFsm : public HwOpFsm
{
  public:
    using HwOpFsm::HwOpFsm;
    void start() override;

  private:
    enum class State : std::uint8_t {
        Idle,
        IssueCmdAddr,
        WaitArrayBusy,
        WaitArrayReady,
        TransferData,
        Done,
    };
    void step();

    State state_ = State::Idle;
};

/** ERASE: hard-coded row wave, R/B# wait, status check. */
class HwEraseFsm : public HwOpFsm
{
  public:
    using HwOpFsm::HwOpFsm;
    void start() override;

  private:
    enum class State : std::uint8_t {
        Idle,
        IssueCmdAddr,
        WaitArrayBusy,
        WaitArrayReady,
        CheckStatus,
        Done,
    };
    void step();

    State state_ = State::Idle;
    std::uint8_t statusByte_ = 0;
};

} // namespace babol::core

#endif // BABOL_CORE_HW_HW_OPS_HH
