#include "ops.hh"

#include "nand/onfi.hh"
#include "obs/sim_context.hh"

namespace babol::core {

using namespace nand;
using namespace nand::opcode;

namespace {

/** Full 5-cycle column+row address for a payload column. */
AddressCycles
colRow(OpEnv &env, std::uint32_t payload_column, const RowAddress &row)
{
    return encodeColRow(env.geo(), env.ecc().flashColumnFor(payload_column),
                        row);
}

/** The CHANGE READ COLUMN + Data Reader tail every read variant shares. */
Transaction
transferTxn(OpEnv &env, std::uint32_t chip, std::uint32_t payload_column,
            std::uint32_t payload_bytes, std::uint64_t dram_addr,
            obs::Label label)
{
    std::uint32_t flash_col = env.ecc().flashColumnFor(payload_column);
    Transaction txn(chip, label);
    txn.priority = 1; // data transfers may overtake polls under 'priority'
    txn.add(ChipControl{1u << chip});
    txn.add(CaWriter::command(kChangeReadCol1)
                .addr(encodeColumn(env.geo(), flash_col))
                .cmd(kChangeReadCol2));
    DataReader dr;
    dr.bytes = env.ecc().flashBytesFor(payload_bytes);
    dr.toDram = true;
    dr.dramAddr = dram_addr;
    dr.eccCorrect = true;
    dr.pageColumn = flash_col;
    txn.add(dr);
    return txn;
}

} // namespace

// --------------------------------------------------------------------
// Bounded status polling
// --------------------------------------------------------------------
Op<PollStatus>
pollReadyOp(OpEnv &env, std::uint32_t chip, std::uint8_t mask,
            Tick expected, const char *what)
{
    PollStatus out;
    const Tick start = env.rt.curTick();
    // Budget: twice the datasheet time plus a flat grace window, so a
    // transiently stuck die (tR/tPROG overrun) recovers while a dead
    // one is abandoned instead of hanging the op forever.
    const Tick budget = expected * 2 + kPollGrace;
    Tick backoff = ticks::perUs;
    for (;;) {
        out.status = co_await readStatusOp(env, chip);
        ++out.polls;
        if (out.status & mask)
            co_return out;
        Tick elapsed = env.rt.curTick() - start;
        if (elapsed > budget) {
            out.timedOut = true;
            env.sys.eventQueue().context().faults.noteTimeout(
                strfmt("coro.%s c%u", what, chip), env.rt.curTick());
            co_return out;
        }
        if (elapsed > expected) {
            // Past the datasheet time: stop hammering the bus and back
            // off exponentially (capped) between polls.
            co_await env.rt.sleepFor(backoff);
            backoff = std::min<Tick>(backoff * 2, kPollBackoffCap);
        }
    }
}

// --------------------------------------------------------------------
// Algorithm 1: READ STATUS
// --------------------------------------------------------------------
Op<std::uint8_t>
readStatusOp(OpEnv &env, std::uint32_t chip)
{
    Transaction txn(chip, env.rt.labels().readStatus[chip]);
    txn.add(ChipControl{1u << chip});
    txn.add(CaWriter::command(kReadStatus));
    txn.add(DataReader{.bytes = 1});
    TxnResult r = co_await env.rt.submit(std::move(txn));
    co_return r.inlineData.at(0);
}

// --------------------------------------------------------------------
// Algorithm 2: READ with Change Read Column
// --------------------------------------------------------------------
// LOC:BEGIN READ
Op<OpResult>
readOp(OpEnv &env, FlashRequest req)
{
    OpResult res;
    res.startTick = env.rt.curTick();
    if (req.dataBytes == 0)
        req.dataBytes = env.geo().pageDataBytes;

    // Transaction 1: command and page-address latch.
    Transaction latch(req.chip, env.rt.labels().readCa[req.chip]);
    latch.add(ChipControl{1u << req.chip});
    latch.add(CaWriter::command(kRead1)
                  .addr(colRow(env, req.column, req.row))
                  .cmd(kRead2));
    co_await env.rt.submit(std::move(latch));

    // Poll LUN readiness instead of waiting a fixed tR (paper Fig. 9),
    // bounded so a stuck die fails the op instead of hanging it.
    PollStatus ps = co_await pollReadyOp(env, req.chip, status::kRdy,
                                         env.timing().tR, "READ");
    if (ps.timedOut) {
        res.timedOut = true;
        co_return res;
    }

    // Transaction 2: select the column and move the data out.
    TxnResult xfer = co_await env.rt.submit(
        transferTxn(env, req.chip, req.column, req.dataBytes, req.dramAddr,
                    env.rt.labels().readXfer[req.chip]));
    res.correctedBits = xfer.eccCorrectedBits;
    res.failedCodewords = xfer.eccFailedCodewords;
    res.maxCodewordBits = xfer.eccMaxCodewordBits;
    res.ok = xfer.eccFailedCodewords == 0;
    co_return res;
}
// LOC:END READ

// --------------------------------------------------------------------
// Algorithm 3: pseudo-SLC READ — the vendor prefix is the only change.
// --------------------------------------------------------------------
Op<OpResult>
pslcReadOp(OpEnv &env, FlashRequest req)
{
    OpResult res;
    res.startTick = env.rt.curTick();
    if (req.dataBytes == 0)
        req.dataBytes = env.geo().pageDataBytes;

    Transaction latch(req.chip, env.rt.labels().pslcReadCa[req.chip]);
    latch.add(ChipControl{1u << req.chip});
    latch.add(CaWriter::command(kVendorSlcPrefix) // <- pSLC prefix
                  .cmd(kRead1)
                  .addr(colRow(env, req.column, req.row))
                  .cmd(kRead2));
    co_await env.rt.submit(std::move(latch));

    PollStatus ps = co_await pollReadyOp(
        env, req.chip, status::kRdy,
        static_cast<Tick>(env.timing().tR * env.timing().slcReadFactor),
        "PSLC_READ");
    if (ps.timedOut) {
        res.timedOut = true;
        co_return res;
    }

    TxnResult xfer = co_await env.rt.submit(
        transferTxn(env, req.chip, req.column, req.dataBytes, req.dramAddr,
                    env.rt.labels().pslcReadXfer[req.chip]));
    res.correctedBits = xfer.eccCorrectedBits;
    res.failedCodewords = xfer.eccFailedCodewords;
    res.maxCodewordBits = xfer.eccMaxCodewordBits;
    res.ok = xfer.eccFailedCodewords == 0;
    co_return res;
}

// --------------------------------------------------------------------
// Raw OOB read (mount scan)
// --------------------------------------------------------------------
Op<OpResult>
oobReadOp(OpEnv &env, FlashRequest req)
{
    OpResult res;
    res.startTick = env.rt.curTick();
    if (req.dataBytes == 0)
        req.dataBytes = env.geo().pageOobBytes;
    const std::uint32_t oob_col = env.geo().oobColumn();

    // Latch the read at the OOB column (raw addressing — the tail sits
    // past the ECC image, so flashColumnFor must not be applied).
    Transaction latch(req.chip, env.rt.labels().oobReadCa[req.chip]);
    latch.add(ChipControl{1u << req.chip});
    latch.add(CaWriter::command(kRead1)
                  .addr(encodeColRow(env.geo(), oob_col, req.row))
                  .cmd(kRead2));
    co_await env.rt.submit(std::move(latch));

    PollStatus ps = co_await pollReadyOp(env, req.chip, status::kRdy,
                                         env.timing().tR, "OOB_READ");
    if (ps.timedOut) {
        res.timedOut = true;
        co_return res;
    }

    // Raw transfer of the tail — lands verbatim in DRAM.
    Transaction xfer(req.chip, env.rt.labels().oobReadXfer[req.chip]);
    xfer.priority = 1;
    xfer.add(ChipControl{1u << req.chip});
    xfer.add(CaWriter::command(kChangeReadCol1)
                 .addr(encodeColumn(env.geo(), oob_col))
                 .cmd(kChangeReadCol2));
    DataReader dr;
    dr.bytes = req.dataBytes;
    dr.toDram = true;
    dr.dramAddr = req.dramAddr;
    dr.eccCorrect = false;
    dr.pageColumn = oob_col;
    xfer.add(dr);
    co_await env.rt.submit(std::move(xfer));
    res.ok = true;
    co_return res;
}

// --------------------------------------------------------------------
// PAGE PROGRAM
// --------------------------------------------------------------------
// LOC:BEGIN PROGRAM
Op<OpResult>
programOp(OpEnv &env, FlashRequest req, bool pslc)
{
    OpResult res;
    res.startTick = env.rt.curTick();
    if (req.dataBytes == 0)
        req.dataBytes = env.geo().pageDataBytes;

    // One transaction: address latch, data-in burst, confirm.
    Transaction txn(req.chip, env.rt.labels().program[req.chip]);
    txn.add(ChipControl{1u << req.chip});
    CaWriter head = pslc ? CaWriter::command(kVendorSlcPrefix).cmd(kProgram1)
                         : CaWriter::command(kProgram1);
    txn.add(head.addr(colRow(env, req.column, req.row)));
    txn.add(DataWriter{.dramAddr = req.dramAddr,
                       .bytes = req.dataBytes,
                       .eccEncode = true,
                       .inlineData = {}});
    if (!req.oob.empty()) {
        // OOB tail: CHANGE WRITE COLUMN to the raw tail past the ECC
        // image, then a raw burst into the same page register — the
        // one array program below commits data and record atomically.
        txn.add(CaWriter::command(kChangeWriteCol)
                    .addr(encodeColumn(env.geo(), env.geo().oobColumn())));
        DataWriter oob;
        oob.bytes = static_cast<std::uint32_t>(req.oob.size());
        oob.inlineData = req.oob;
        txn.add(oob);
    }
    txn.add(CaWriter::command(kProgram2));
    co_await env.rt.submit(std::move(txn));

    // Poll for completion (bounded), then check the FAIL bit.
    PollStatus ps = co_await pollReadyOp(env, req.chip, status::kRdy,
                                         env.timing().tProg, "PROGRAM");
    if (ps.timedOut) {
        res.timedOut = true;
        co_return res;
    }
    res.flashFail = ps.status & status::kFail;
    res.ok = !res.flashFail;
    co_return res;
}
// LOC:END PROGRAM

// --------------------------------------------------------------------
// BLOCK ERASE
// --------------------------------------------------------------------
// LOC:BEGIN ERASE
Op<OpResult>
eraseOp(OpEnv &env, FlashRequest req, bool slc_mode)
{
    OpResult res;
    res.startTick = env.rt.curTick();

    Transaction txn(req.chip, env.rt.labels().erase[req.chip]);
    txn.add(ChipControl{1u << req.chip});
    CaWriter head = slc_mode
                        ? CaWriter::command(kVendorSlcPrefix).cmd(kErase1)
                        : CaWriter::command(kErase1);
    txn.add(head.addr(encodeRow(env.geo(), req.row)).cmd(kErase2));
    co_await env.rt.submit(std::move(txn));

    PollStatus ps = co_await pollReadyOp(env, req.chip, status::kRdy,
                                         env.timing().tBers, "ERASE");
    if (ps.timedOut) {
        res.timedOut = true;
        co_return res;
    }
    res.flashFail = ps.status & status::kFail;
    res.ok = !res.flashFail;
    co_return res;
}
// LOC:END ERASE

// --------------------------------------------------------------------
// SET / GET FEATURES
// --------------------------------------------------------------------
Op<std::uint8_t>
setFeaturesOp(OpEnv &env, std::uint32_t chip, std::uint8_t feature_addr,
              std::array<std::uint8_t, 4> params)
{
    Transaction txn(chip, strfmt("SET_FEATURES c%u a%02x", chip,
                                 feature_addr));
    txn.add(ChipControl{1u << chip});
    txn.add(CaWriter::command(kSetFeatures).addr({feature_addr}));
    // tADL before the parameter bytes (Fig. 7's timing example) is the
    // μFSM bank's responsibility; this Timer only documents the wave.
    txn.add(Timer{env.timing().tAdl});
    DataWriter dw;
    dw.bytes = 4;
    dw.inlineData = params; // the frame's copy outlives the transaction
    txn.add(dw);
    co_await env.rt.submit(std::move(txn));

    PollStatus ps = co_await pollReadyOp(env, chip, status::kRdy,
                                         env.timing().tFeat,
                                         "SET_FEATURES");
    co_return ps.status;
}

Op<std::array<std::uint8_t, 4>>
getFeaturesOp(OpEnv &env, std::uint32_t chip, std::uint8_t feature_addr)
{
    Transaction txn(chip, strfmt("GET_FEATURES c%u a%02x", chip,
                                 feature_addr));
    txn.add(ChipControl{1u << chip});
    txn.add(CaWriter::command(kGetFeatures).addr({feature_addr}));
    txn.add(Timer{env.timing().tFeat + env.timing().tFeat / 4});
    txn.add(DataReader{.bytes = 4});
    TxnResult r = co_await env.rt.submit(std::move(txn));
    std::array<std::uint8_t, 4> out{};
    for (std::size_t i = 0; i < out.size() && i < r.inlineData.size(); ++i)
        out[i] = r.inlineData[i];
    co_return out;
}

// --------------------------------------------------------------------
// RESET / READ ID / READ PARAMETER PAGE
// --------------------------------------------------------------------
Op<std::uint8_t>
resetOp(OpEnv &env, std::uint32_t chip)
{
    Transaction txn(chip, strfmt("RESET c%u", chip));
    txn.add(ChipControl{1u << chip});
    txn.add(CaWriter::command(kReset));
    co_await env.rt.submit(std::move(txn));

    PollStatus ps = co_await pollReadyOp(env, chip, status::kRdy,
                                         env.timing().tRst, "RESET");
    co_return ps.status;
}

Op<std::vector<std::uint8_t>>
readIdOp(OpEnv &env, std::uint32_t chip, std::uint8_t id_addr,
         std::uint32_t bytes)
{
    Transaction txn(chip, strfmt("READ_ID c%u", chip));
    txn.add(ChipControl{1u << chip});
    txn.add(CaWriter::command(kReadId).addr({id_addr}));
    txn.add(DataReader{.bytes = bytes});
    TxnResult r = co_await env.rt.submit(std::move(txn));
    co_return std::vector<std::uint8_t>(r.inlineData.begin(),
                                        r.inlineData.end());
}

Op<nand::ParamPageInfo>
readParamPageOp(OpEnv &env, std::uint32_t chip)
{
    Transaction txn(chip, strfmt("READ_PARAM c%u", chip));
    txn.add(ChipControl{1u << chip});
    txn.add(CaWriter::command(kReadParamPage).addr({0x00}));
    txn.add(Timer{env.timing().tRParam + env.timing().tRParam / 4});
    txn.add(DataReader{.bytes = 3 * nand::kParamPageBytes});
    TxnResult r = co_await env.rt.submit(std::move(txn));

    // ONFI mandates redundant copies; take the first that checks out.
    for (std::size_t copy = 0; copy < 3; ++copy) {
        std::span<const std::uint8_t> page(
            r.inlineData.data() + copy * nand::kParamPageBytes,
            nand::kParamPageBytes);
        if (auto info = nand::decodeParamPage(page))
            co_return *info;
    }
    panic("chip %u: no valid parameter page copy", chip);
}

// --------------------------------------------------------------------
// READ with read-retry
// --------------------------------------------------------------------
Op<OpResult>
readWithRetryOp(OpEnv &env, FlashRequest req, std::uint32_t max_retries)
{
    OpResult res = co_await readOp(env, req);
    std::uint32_t level = 0;
    while (!res.ok && !res.timedOut && res.retries < max_retries) {
        ++level;
        env.sys.eventQueue().context().faults.noteRetryStep(
            strfmt("coro c%u", req.chip), level, env.rt.curTick());
        co_await setFeaturesOp(env, req.chip, feature::kVendorReadRetry,
                               {static_cast<std::uint8_t>(level), 0, 0, 0});
        std::uint32_t retries = res.retries + 1;
        res = co_await readOp(env, req);
        res.retries = retries;
    }
    co_return res;
}

// --------------------------------------------------------------------
// RAIL-style gang read
// --------------------------------------------------------------------
Op<GangReadResult>
gangReadOp(OpEnv &env, std::uint32_t chip_mask, RowAddress row,
           std::uint32_t column, std::uint32_t data_bytes,
           std::uint64_t dram_addr)
{
    babol_assert(chip_mask != 0, "gang read with empty chip mask");
    GangReadResult out;
    out.result.startTick = env.rt.curTick();

    // One gang-scheduled latch: every replica starts its tR at once.
    std::uint32_t first = 0;
    while (!(chip_mask & (1u << first)))
        ++first;
    Transaction latch(first, strfmt("GANG_READ.ca m%02x", chip_mask));
    latch.add(ChipControl{chip_mask});
    latch.add(CaWriter::command(kRead1)
                  .addr(colRow(env, column, row))
                  .cmd(kRead2));
    co_await env.rt.submit(std::move(latch));

    // Serve from whichever replica turns ready first.
    std::uint32_t winner = 0;
    for (bool found = false; !found;) {
        for (std::uint32_t chip = 0; chip < 32 && !found; ++chip) {
            if (!(chip_mask & (1u << chip)))
                continue;
            std::uint8_t st = co_await readStatusOp(env, chip);
            if (st & status::kRdy) {
                winner = chip;
                found = true;
            }
        }
    }

    TxnResult xfer = co_await env.rt.submit(transferTxn(
        env, winner, column, data_bytes, dram_addr,
        strfmt("GANG_READ.xfer c%u", winner)));
    out.servedChip = winner;
    out.result.correctedBits = xfer.eccCorrectedBits;
    out.result.failedCodewords = xfer.eccFailedCodewords;
    out.result.maxCodewordBits = xfer.eccMaxCodewordBits;
    out.result.ok = xfer.eccFailedCodewords == 0;
    co_return out;
}

// --------------------------------------------------------------------
// Sequential cache read
// --------------------------------------------------------------------
Op<OpResult>
cacheReadSeqOp(OpEnv &env, std::uint32_t chip, RowAddress row,
               std::uint32_t pages, std::uint64_t dram_addr)
{
    babol_assert(pages >= 1, "cache read of zero pages");
    OpResult res;
    res.startTick = env.rt.curTick();
    const std::uint32_t page_bytes = env.geo().pageDataBytes;

    Transaction latch(chip, strfmt("CACHE_READ.ca c%u", chip));
    latch.add(ChipControl{1u << chip});
    latch.add(CaWriter::command(kRead1).addr(colRow(env, 0, row))
                  .cmd(kRead2));
    co_await env.rt.submit(std::move(latch));

    std::uint8_t st = 0;
    do {
        st = co_await readStatusOp(env, chip);
    } while (!(st & status::kRdy));

    for (std::uint32_t i = 0; i < pages; ++i) {
        if (pages > 1) {
            // 31h turns the cache register and pre-reads the next page;
            // 3Fh ends the pipeline.
            Transaction turn(chip, strfmt("CACHE_READ.%s c%u",
                                          i + 1 < pages ? "31" : "3f",
                                          chip));
            turn.add(ChipControl{1u << chip});
            turn.add(CaWriter::command(i + 1 < pages ? kReadCacheSeq
                                                     : kReadCacheEnd));
            co_await env.rt.submit(std::move(turn));
            do {
                st = co_await readStatusOp(env, chip);
            } while (!(st & status::kRdy));
        }
        TxnResult xfer = co_await env.rt.submit(transferTxn(
            env, chip, 0, page_bytes,
            dram_addr + static_cast<std::uint64_t>(i) * page_bytes,
            "CACHE_READ.xfer"));
        res.correctedBits += xfer.eccCorrectedBits;
        res.failedCodewords += xfer.eccFailedCodewords;
        res.maxCodewordBits = std::max(res.maxCodewordBits,
                                       xfer.eccMaxCodewordBits);
    }
    res.ok = res.failedCodewords == 0;
    co_return res;
}

// --------------------------------------------------------------------
// Sequential cache program
// --------------------------------------------------------------------
Op<OpResult>
cacheProgramSeqOp(OpEnv &env, std::uint32_t chip, RowAddress row,
                  std::uint32_t pages, std::uint64_t dram_addr)
{
    babol_assert(pages >= 1, "cache program of zero pages");
    OpResult res;
    res.startTick = env.rt.curTick();
    const std::uint32_t page_bytes = env.geo().pageDataBytes;

    for (std::uint32_t i = 0; i < pages; ++i) {
        RowAddress target = row;
        target.page += i;
        babol_assert(target.page < env.geo().pagesPerBlock,
                     "cache program past end of block");

        // 80h / address / data / 15h (or 10h for the last page). After
        // 15h the interface frees in tCBSY while the array programs in
        // the background.
        bool last = i + 1 == pages;
        Transaction txn(chip, strfmt("CACHE_PROG.%s c%u",
                                     last ? "10" : "15", chip));
        txn.add(ChipControl{1u << chip});
        txn.add(CaWriter::command(kProgram1)
                    .addr(colRow(env, 0, target)));
        txn.add(DataWriter{.dramAddr = dram_addr +
                                       static_cast<std::uint64_t>(i) *
                                           page_bytes,
                           .bytes = page_bytes,
                           .eccEncode = true,
                           .inlineData = {}});
        txn.add(CaWriter::command(last ? kProgram2 : kProgramCache));
        co_await env.rt.submit(std::move(txn));

        // Wait until the interface can take the next page (RDY); the
        // previous program keeps running in the array (ARDY low).
        std::uint8_t st = 0;
        do {
            st = co_await readStatusOp(env, chip);
        } while (!(st & status::kRdy));
        if (st & status::kFailC)
            res.flashFail = true;
    }

    // Drain: wait for the final array program (ARDY) and check FAIL.
    std::uint8_t st = 0;
    do {
        st = co_await readStatusOp(env, chip);
    } while (!(st & status::kArdy));
    res.flashFail = res.flashFail || (st & (status::kFail | status::kFailC));
    res.ok = !res.flashFail;
    co_return res;
}

// --------------------------------------------------------------------
// Multi-plane read
// --------------------------------------------------------------------
Op<OpResult>
multiPlaneReadOp(OpEnv &env, std::uint32_t chip, RowAddress row_plane0,
                 RowAddress row_plane1, std::uint64_t dram_addr0,
                 std::uint64_t dram_addr1)
{
    babol_assert(row_plane0.plane(env.geo()) != row_plane1.plane(env.geo()),
                 "multi-plane read rows must target different planes");
    OpResult res;
    res.startTick = env.rt.curTick();
    const std::uint32_t page_bytes = env.geo().pageDataBytes;

    Transaction latch(chip, strfmt("MP_READ.ca c%u", chip));
    latch.add(ChipControl{1u << chip});
    latch.add(CaWriter::command(kRead1).addr(colRow(env, 0, row_plane0))
                  .cmd(kReadMultiPlane));
    latch.add(CaWriter::command(kRead1).addr(colRow(env, 0, row_plane1))
                  .cmd(kRead2));
    co_await env.rt.submit(std::move(latch));

    std::uint8_t st = 0;
    do {
        st = co_await readStatusOp(env, chip);
    } while (!(st & status::kRdy));

    // Transfer each plane via CHANGE READ COLUMN ENHANCED (06h/E0h).
    const RowAddress rows[2] = {row_plane0, row_plane1};
    const std::uint64_t addrs[2] = {dram_addr0, dram_addr1};
    for (int p = 0; p < 2; ++p) {
        Transaction xfer(chip, strfmt("MP_READ.xfer%d c%u", p, chip));
        xfer.priority = 1;
        xfer.add(ChipControl{1u << chip});
        xfer.add(CaWriter::command(kChangeReadColEnh)
                     .addr(encodeColRow(env.geo(), 0, rows[p]))
                     .cmd(kChangeReadCol2));
        DataReader dr;
        dr.bytes = env.ecc().flashBytesFor(page_bytes);
        dr.toDram = true;
        dr.dramAddr = addrs[p];
        dr.eccCorrect = true;
        dr.pageColumn = 0;
        xfer.add(dr);
        TxnResult r = co_await env.rt.submit(std::move(xfer));
        res.correctedBits += r.eccCorrectedBits;
        res.failedCodewords += r.eccFailedCodewords;
        res.maxCodewordBits = std::max(res.maxCodewordBits,
                                       r.eccMaxCodewordBits);
    }
    res.ok = res.failedCodewords == 0;
    co_return res;
}

// --------------------------------------------------------------------
// Suspend / resume (vendor)
// --------------------------------------------------------------------
Op<std::uint8_t>
suspendOp(OpEnv &env, std::uint32_t chip)
{
    Transaction txn(chip, strfmt("SUSPEND c%u", chip));
    txn.add(ChipControl{1u << chip});
    txn.add(CaWriter::command(kVendorSuspend));
    co_await env.rt.submit(std::move(txn));

    std::uint8_t st = 0;
    do {
        st = co_await readStatusOp(env, chip);
    } while (!(st & status::kRdy));
    co_return st;
}

Op<std::uint8_t>
resumeOp(OpEnv &env, std::uint32_t chip)
{
    Transaction txn(chip, strfmt("RESUME c%u", chip));
    txn.add(ChipControl{1u << chip});
    txn.add(CaWriter::command(kVendorResume));
    co_await env.rt.submit(std::move(txn));
    co_return co_await readStatusOp(env, chip);
}

} // namespace babol::core
