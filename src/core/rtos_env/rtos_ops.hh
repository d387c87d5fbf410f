/**
 * @file
 * BABOL operations for the RTOS environment.
 *
 * The same READ / PROGRAM / ERASE logic as the coroutine library, but
 * written the way a FreeRTOS firmware engineer must write it: each
 * operation is a task whose control flow is an explicit state machine,
 * advanced one message at a time. Compare with coro/ops.cc to see the
 * paper's §V Discussion in code — the RTOS runtime is cheaper per step,
 * and the programmer pays for it in states and transitions.
 */

#ifndef BABOL_CORE_RTOS_ENV_RTOS_OPS_HH
#define BABOL_CORE_RTOS_ENV_RTOS_OPS_HH

#include <array>

#include "../channel_system.hh"
#include "../op_request.hh"
#include "../soft_runtime.hh"
#include "cpu/rtos.hh"

namespace babol::core {

class RtosController;

/** Messages an operation task can receive. */
namespace rtos_msg {
constexpr std::uint64_t kStart = 1;
constexpr std::uint64_t kTxnDone = 2;
} // namespace rtos_msg

/** Shared plumbing: transaction submission and completion reporting. */
class RtosOpBase : public cpu::RtosTask
{
  public:
    RtosOpBase(RtosController &ctrl, std::uint64_t id, FlashRequest req,
               const std::string &name, int priority);

    const FlashRequest &request() const { return req_; }
    FlashRequest &requestMutable() { return req_; }

  protected:
    /** Send a transaction; a kTxnDone message arrives on completion with
     *  the result stored in lastTxn_. */
    void submitTxn(Transaction txn);

    /** Report the final result; the task is destroyed afterwards. */
    void finish(OpResult res);

    /** Last completed transaction's result. */
    const TxnResult &lastTxn() const { return lastTxn_; }

    /** Status byte of the last READ STATUS poll. */
    std::uint8_t lastStatus() const;

    /** The controller's prebuilt transaction labels. */
    const TxnLabels &labels() const;

    /** Build the standard one-byte status poll transaction. */
    Transaction makeStatusPoll() const;

    /** Open a bounded poll window: the op expects the array to take
     *  about @p expected; polls run eagerly until then, back off after,
     *  and the window expires at 2 × expected plus a flat grace. */
    void beginPollWindow(Tick expected);

    /**
     * The last poll came back not-ready: either resubmit (immediately
     * within the datasheet time, else after a capped exponential
     * backoff pause off the bus) and return false, or — when the
     * window's budget is spent — report a timeout and return true.
     */
    bool repollOrTimeout(const char *what);

    RtosController &ctrl_;
    std::uint64_t id_;
    FlashRequest req_;
    OpResult res_;

  private:
    TxnResult lastTxn_;
    Tick pollStart_ = 0;
    Tick pollExpected_ = 0;
    Tick pollBackoff_ = 0;
};

/** READ (optionally pSLC) as an explicit five-state machine. */
class RtosReadOp : public RtosOpBase
{
  public:
    RtosReadOp(RtosController &ctrl, std::uint64_t id, FlashRequest req,
               bool pslc);

    void onMessage(cpu::RtosKernel &kernel, std::uint64_t msg) override;

  private:
    enum class St : std::uint8_t {
        Idle,
        WaitCaLatch,
        WaitStatus,
        WaitTransfer,
        WaitRetryFeat,       //!< SET FEATURES (read-retry level) on wires
        WaitRetryFeatStatus, //!< polling until the level switch lands
    };

    /** Build and submit the command/address latch transaction. */
    void issueLatch();

    St st_ = St::Idle;
    bool pslc_;
    std::uint32_t retries_ = 0;
    /** SET FEATURES parameters of the retry step on the wires (the
     *  transaction borrows them until it completes). */
    std::array<std::uint8_t, 4> featureParams_{};
};

/**
 * Raw OOB-tail read (mount scan) as an explicit state machine: a READ
 * latched at the OOB column whose transfer moves the record bytes
 * verbatim (no ECC, no retry — torn pages are the FTL's CRC's problem).
 */
class RtosOobReadOp : public RtosOpBase
{
  public:
    RtosOobReadOp(RtosController &ctrl, std::uint64_t id, FlashRequest req);

    void onMessage(cpu::RtosKernel &kernel, std::uint64_t msg) override;

  private:
    enum class St : std::uint8_t {
        Idle,
        WaitCaLatch,
        WaitStatus,
        WaitTransfer,
    };
    St st_ = St::Idle;
};

/** PAGE PROGRAM (optionally pSLC) as an explicit state machine. */
class RtosProgramOp : public RtosOpBase
{
  public:
    RtosProgramOp(RtosController &ctrl, std::uint64_t id, FlashRequest req,
                  bool pslc);

    void onMessage(cpu::RtosKernel &kernel, std::uint64_t msg) override;

  private:
    enum class St : std::uint8_t { Idle, WaitProgram, WaitStatus };
    St st_ = St::Idle;
    bool pslc_;
};

/** BLOCK ERASE (optionally SLC-mode) as an explicit state machine. */
class RtosEraseOp : public RtosOpBase
{
  public:
    RtosEraseOp(RtosController &ctrl, std::uint64_t id, FlashRequest req,
                bool slc_mode);

    void onMessage(cpu::RtosKernel &kernel, std::uint64_t msg) override;

  private:
    enum class St : std::uint8_t { Idle, WaitErase, WaitStatus };
    St st_ = St::Idle;
    bool slcMode_;
};

} // namespace babol::core

#endif // BABOL_CORE_RTOS_ENV_RTOS_OPS_HH
