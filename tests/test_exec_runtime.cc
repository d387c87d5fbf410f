/**
 * @file
 * Execution-unit and software-runtime internals: hardware FIFO
 * contracts, space callbacks, transaction atomicity on the wires,
 * CPU-lane priorities for transfers, batched dispatch, and the
 * coroutine runtime's awaitables.
 */

#include <gtest/gtest.h>

#include "core/coro/coro_controller.hh"
#include "core/coro/ops.hh"

using namespace babol;
using namespace babol::core;
using namespace babol::nand;

namespace {

struct ExecRig
{
    EventQueue eq;
    ChannelSystem sys;

    explicit ExecRig(std::uint32_t fifo_depth = 2)
        : sys(eq, "ssd", makeCfg(fifo_depth))
    {}

    static ChannelConfig
    makeCfg(std::uint32_t fifo_depth)
    {
        ChannelConfig cfg;
        cfg.package = hynixPackage();
        cfg.chips = 2;
        cfg.fifoDepth = fifo_depth;
        return cfg;
    }

    /** A READ STATUS transaction parked in the exec unit's slots. */
    TxnRef
    statusTxn(std::uint32_t chip, std::function<void(TxnResult)> done = {})
    {
        Transaction txn(chip, strfmt("READ_STATUS c%u", chip));
        txn.add(ChipControl{1u << chip});
        txn.add(CaWriter::command(opcode::kReadStatus));
        txn.add(DataReader{.bytes = 1});
        txn.onComplete = std::move(done);
        return sys.exec().transactions().park(std::move(txn));
    }
};

TEST(ExecUnit, ExecutesTransactionsInFifoOrder)
{
    ExecRig rig;
    std::vector<int> order;
    rig.sys.exec().push(rig.statusTxn(0, [&](TxnResult) {
        order.push_back(0);
    }));
    rig.sys.exec().push(rig.statusTxn(1, [&](TxnResult) {
        order.push_back(1);
    }));
    EXPECT_EQ(rig.sys.exec().transactions().live(), 2u);
    rig.eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(rig.sys.exec().transactionsExecuted(), 2u);
    // Each slot is freed when its transaction completes.
    EXPECT_EQ(rig.sys.exec().transactions().live(), 0u);
}

TEST(ExecUnit, OverflowPanics)
{
    ExecRig rig(1);
    // Depth 1: one slot. The first push starts issuing immediately and
    // frees its slot, so fill the slot with a second and overflow with
    // a third.
    rig.sys.exec().push(rig.statusTxn(0));
    rig.sys.exec().push(rig.statusTxn(1));
    ASSERT_FALSE(rig.sys.exec().hasSpace());
    EXPECT_THROW(rig.sys.exec().push(rig.statusTxn(0)), SimPanic);
    rig.eq.run();
}

TEST(ExecUnit, SpaceCallbackFiresPerIssue)
{
    ExecRig rig(1);
    int frees = 0;
    rig.sys.exec().setSpaceCallback([&] { ++frees; });
    rig.sys.exec().push(rig.statusTxn(0));
    rig.sys.exec().push(rig.statusTxn(1));
    rig.eq.run();
    EXPECT_EQ(frees, 2);
    EXPECT_TRUE(rig.sys.exec().idle());
}

TEST(ExecUnit, StatusTransactionReturnsInlineByte)
{
    ExecRig rig;
    TxnResult result;
    rig.sys.exec().push(rig.statusTxn(1, [&](TxnResult r) {
        result = std::move(r);
    }));
    rig.eq.run();
    ASSERT_EQ(result.inlineData.size(), 1u);
    EXPECT_TRUE(result.inlineData[0] & status::kRdy);
}

TEST(ExecUnit, TransactionIsAtomicOnTheBus)
{
    // While a transaction's segment occupies the bus, issuing directly
    // on the bus (bypassing the FIFO) must panic — atomicity.
    ExecRig rig;
    rig.sys.exec().push(rig.statusTxn(0));
    // The exec unit issued synchronously; the bus is now busy.
    ASSERT_TRUE(rig.sys.bus().busy());
    chan::Segment raw;
    raw.ceMask = 1;
    raw.label = "intruder";
    raw.items.push_back(chan::SegmentItem::command(opcode::kReadStatus));
    EXPECT_THROW(rig.sys.bus().issue(std::move(raw),
                                     [](chan::SegmentResult) {}),
                 SimPanic);
    rig.eq.run();
}

struct RuntimeRig
{
    EventQueue eq;
    ChannelSystem sys;
    cpu::CpuModel cpu;
    CoroRuntime rt;

    RuntimeRig()
        : sys(eq, "ssd", ExecRig::makeCfg(4)),
          cpu(eq, "cpu", 1000),
          rt(eq, "rt", cpu, sys.exec(), makeTxnScheduler("round-robin"))
    {}
};

TEST(SoftRuntime, SubmissionChargesCpuBeforeEnqueue)
{
    RuntimeRig rig;
    Transaction txn(0, "READ_STATUS c0");
    txn.add(ChipControl{1});
    txn.add(CaWriter::command(opcode::kReadStatus));
    txn.add(DataReader{.bytes = 1});
    bool done = false;
    txn.onComplete = [&](TxnResult) { done = true; };

    rig.rt.submitTransaction(std::move(txn));
    EXPECT_EQ(rig.rt.transactionsSubmitted(), 1u);
    // Nothing reaches the hardware until the CPU works through the
    // build + submit + scheduler pass.
    EXPECT_TRUE(rig.sys.exec().idle());
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_GE(rig.cpu.totalCycles(),
              SoftwareCosts::coroutine().buildTransaction);
    EXPECT_GE(rig.rt.schedulerPasses(), 1u);
}

TEST(SoftRuntime, PassCountNeverExceedsTransactionCount)
{
    // One scheduler pass can dispatch several queued transactions
    // (batched drain); at worst it dispatches one each. Either way the
    // pass count is bounded by the transaction count — the runtime
    // never burns passes on an empty queue.
    RuntimeRig rig;
    int completions = 0;
    for (int i = 0; i < 4; ++i) {
        Transaction txn(static_cast<std::uint32_t>(i % 2), "READ_STATUS");
        txn.add(ChipControl{1u << (i % 2)});
        txn.add(CaWriter::command(opcode::kReadStatus));
        txn.add(DataReader{.bytes = 1});
        txn.onComplete = [&](TxnResult) { ++completions; };
        rig.rt.submitTransaction(std::move(txn));
    }
    rig.eq.run();
    EXPECT_EQ(completions, 4);
    EXPECT_GE(rig.rt.schedulerPasses(), 1u);
    EXPECT_LE(rig.rt.schedulerPasses(), 4u);
}

TEST(SoftRuntime, HighPriorityTransactionsUseTheIsrLane)
{
    // Two transactions submitted back to back: the high-priority one's
    // build jumps the CPU queue, so it lands on the hardware first.
    RuntimeRig rig;
    std::vector<std::string> order;

    Transaction low(0, "low");
    low.add(ChipControl{1});
    low.add(CaWriter::command(opcode::kReadStatus));
    low.add(DataReader{.bytes = 1});
    low.priority = 0;
    low.onComplete = [&](TxnResult) { order.push_back("low"); };

    Transaction high(1, "high");
    high.add(ChipControl{2});
    high.add(CaWriter::command(opcode::kReadStatus));
    high.add(DataReader{.bytes = 1});
    high.priority = 1;
    high.onComplete = [&](TxnResult) { order.push_back("high"); };

    rig.rt.submitTransaction(std::move(low));
    rig.rt.submitTransaction(std::move(high));
    rig.eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "high");
}

Op<int>
sleepyOp(CoroRuntime &rt, Tick delay)
{
    Tick before = rt.curTick();
    co_await rt.sleepFor(delay);
    co_return static_cast<int>(ticks::toUs(rt.curTick() - before));
}

TEST(CoroRuntime, SleepForWaitsAtLeastTheDelay)
{
    RuntimeRig rig;
    Op<int> op = sleepyOp(rig.rt, ticks::fromUs(250));
    bool done = false;
    op.setOnDone([&] { done = true; });
    rig.rt.startOp(op.handle());
    rig.eq.run();
    ASSERT_TRUE(done);
    EXPECT_GE(op.result(), 250);
    EXPECT_LT(op.result(), 300); // delay + context switches, not more
}

Op<int>
innerOp()
{
    co_return 21;
}

Op<int>
outerOp()
{
    int a = co_await innerOp();
    int b = co_await innerOp();
    co_return a + b;
}

TEST(CoroRuntime, NestedOpsTransferSymmetrically)
{
    // Nesting costs no scheduler round-trip: the whole chain resolves
    // in a single resume.
    Op<int> op = outerOp();
    op.handle().resume();
    EXPECT_TRUE(op.done());
    EXPECT_EQ(op.result(), 42);
}

Op<int>
throwingOp()
{
    panic("op body exploded");
    co_return 0;
}

Op<int>
catchingOp()
{
    try {
        co_await throwingOp();
    } catch (const SimPanic &) {
        co_return 7;
    }
    co_return 0;
}

TEST(CoroRuntime, ExceptionsPropagateThroughNesting)
{
    Op<int> op = catchingOp();
    op.handle().resume();
    ASSERT_TRUE(op.done());
    EXPECT_EQ(op.result(), 7);

    Op<int> raw = throwingOp();
    raw.handle().resume();
    ASSERT_TRUE(raw.done());
    EXPECT_TRUE(raw.error() != nullptr);
    EXPECT_THROW(raw.result(), SimPanic);
}

} // namespace
