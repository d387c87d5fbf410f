/**
 * @file
 * BABOL's coroutine-environment operation library (paper §V).
 *
 * Each operation is a short coroutine that composes μFSM instructions
 * into transactions, enqueues them, and relinquishes control at every
 * co_await. readStatusOp / readOp / pslcReadOp transliterate the paper's
 * Algorithms 1–3; the rest demonstrate how cheaply the repertoire grows
 * once operations are software: cache reads, multi-plane reads, RAIL
 * gang reads, read-retry, suspend/resume, features, and bring-up probes.
 */

#ifndef BABOL_CORE_CORO_OPS_HH
#define BABOL_CORE_CORO_OPS_HH

#include <array>

#include "../channel_system.hh"
#include "../op_request.hh"
#include "coro_runtime.hh"
#include "nand/param_page.hh"
#include "op_task.hh"

namespace babol::core {

/** Everything an operation needs to run: the runtime and the hardware. */
struct OpEnv
{
    CoroRuntime &rt;
    ChannelSystem &sys;

    /** Frames of the ops run in this environment (see Op<T>). */
    FramePool frames{};

    const nand::Geometry &
    geo() const
    {
        return sys.config().package.geometry;
    }
    EccEngine &ecc() { return sys.ecc(); }
    const nand::TimingParams &
    timing() const
    {
        return sys.config().package.timing;
    }
};

/** Algorithm 1: READ STATUS — one poll, returns the status byte. */
Op<std::uint8_t> readStatusOp(OpEnv &env, std::uint32_t chip);

/** Outcome of a bounded status-poll loop. */
struct PollStatus
{
    std::uint8_t status = 0;
    bool timedOut = false;
    std::uint32_t polls = 0;
};

/**
 * Poll READ STATUS until (status & mask) or the per-op budget —
 * 2 × @p expected plus kPollGrace — expires. Polls run eagerly while
 * the op is within its datasheet time, then space out with bounded
 * exponential backoff; @p what labels timeout reports.
 */
Op<PollStatus> pollReadyOp(OpEnv &env, std::uint32_t chip,
                           std::uint8_t mask, Tick expected,
                           const char *what);

/** Algorithm 2: READ with Change Read Column (partial or full page). */
Op<OpResult> readOp(OpEnv &env, FlashRequest req);

/** Algorithm 3: pseudo-SLC READ — Algorithm 2 with the vendor prefix. */
Op<OpResult> pslcReadOp(OpEnv &env, FlashRequest req);

/**
 * Raw OOB-tail read for the mount scan: a full READ (the array still
 * pays tR) whose transfer selects the OOB column and moves the record
 * bytes verbatim — no ECC image, no correction. Torn pages are detected
 * by the FTL's record CRC, not by ECC.
 */
Op<OpResult> oobReadOp(OpEnv &env, FlashRequest req);

/** PAGE PROGRAM (optionally through the pSLC prefix). */
Op<OpResult> programOp(OpEnv &env, FlashRequest req, bool pslc = false);

/** BLOCK ERASE (optionally leaving the block in SLC mode). */
Op<OpResult> eraseOp(OpEnv &env, FlashRequest req, bool slc_mode = false);

/** SET FEATURES: returns the final status byte. */
Op<std::uint8_t> setFeaturesOp(OpEnv &env, std::uint32_t chip,
                               std::uint8_t feature_addr,
                               std::array<std::uint8_t, 4> params);

/** GET FEATURES: returns the four parameter bytes. */
Op<std::array<std::uint8_t, 4>> getFeaturesOp(OpEnv &env,
                                              std::uint32_t chip,
                                              std::uint8_t feature_addr);

/** RESET: returns once the LUN reports ready. */
Op<std::uint8_t> resetOp(OpEnv &env, std::uint32_t chip);

/** READ ID at the given address operand (00h JEDEC, 20h "ONFI"). */
Op<std::vector<std::uint8_t>> readIdOp(OpEnv &env, std::uint32_t chip,
                                       std::uint8_t id_addr,
                                       std::uint32_t bytes);

/** READ PARAMETER PAGE: fetch + decode (tries all three copies). */
Op<nand::ParamPageInfo> readParamPageOp(OpEnv &env, std::uint32_t chip);

/**
 * READ with read-retry: on ECC failure, sweep the vendor retry levels
 * via SET FEATURES and re-read, up to @p max_retries attempts
 * (non-standard operation family [34], [48]).
 */
Op<OpResult> readWithRetryOp(OpEnv &env, FlashRequest req,
                             std::uint32_t max_retries);

/** Result of a RAIL-style gang read: which replica served the data. */
struct GangReadResult
{
    OpResult result;
    std::uint32_t servedChip = 0;
};

/**
 * RAIL-style gang read [32]: latch the same read on every chip in
 * @p chip_mask at once (one gang-scheduled transaction via Chip
 * Control), then serve the data from the first replica to turn ready —
 * cutting tail latency caused by tR variance.
 */
Op<GangReadResult> gangReadOp(OpEnv &env, std::uint32_t chip_mask,
                              nand::RowAddress row, std::uint32_t column,
                              std::uint32_t data_bytes,
                              std::uint64_t dram_addr);

/**
 * Sequential cache read: stream @p pages consecutive pages starting at
 * @p row using READ CACHE SEQUENTIAL pipelining (array pre-reads page
 * N+1 while page N transfers). Payloads land contiguously at
 * @p dram_addr.
 */
Op<OpResult> cacheReadSeqOp(OpEnv &env, std::uint32_t chip,
                            nand::RowAddress row, std::uint32_t pages,
                            std::uint64_t dram_addr);

/**
 * Sequential cache program: stream @p pages consecutive pages starting
 * at @p row using PAGE CACHE PROGRAM (15h) pipelining — the interface
 * frees after the short cache-busy time while the array programs in
 * the background, so transfers of page N+1 overlap the program of
 * page N. Payloads are read contiguously from @p dram_addr.
 */
Op<OpResult> cacheProgramSeqOp(OpEnv &env, std::uint32_t chip,
                               nand::RowAddress row, std::uint32_t pages,
                               std::uint64_t dram_addr);

/**
 * Multi-plane read: one tR for two pages in different planes, then two
 * transfers selected via CHANGE READ COLUMN ENHANCED.
 */
Op<OpResult> multiPlaneReadOp(OpEnv &env, std::uint32_t chip,
                              nand::RowAddress row_plane0,
                              nand::RowAddress row_plane1,
                              std::uint64_t dram_addr0,
                              std::uint64_t dram_addr1);

/** Suspend the in-flight program/erase on @p chip (vendor B0h). */
Op<std::uint8_t> suspendOp(OpEnv &env, std::uint32_t chip);

/** Resume a suspended program/erase (vendor B1h). */
Op<std::uint8_t> resumeOp(OpEnv &env, std::uint32_t chip);

} // namespace babol::core

#endif // BABOL_CORE_CORO_OPS_HH
