/**
 * @file
 * μFSM bank and Packetizer tests: instruction→segment emission,
 * automatic category-2 timing insertion, latch grouping, chip control,
 * and the DMA/ECC datapath.
 */

#include <gtest/gtest.h>

#include "core/ufsm.hh"
#include "nand/onfi.hh"

using namespace babol;
using namespace babol::core;
using namespace babol::nand;

namespace {

struct EmitRig
{
    EventQueue eq;
    dram::DramBuffer dram{eq, "dram", 4u << 20};
    EccEngine ecc;
    Packetizer pktz{eq, "pktz", dram, ecc};
    nand::TimingParams timing = hynixPackage().timing;
    UfsmBank bank{timing, pktz};
};

TEST(Ufsm, CaWriterGroupsLatchRuns)
{
    EmitRig rig;
    Transaction txn(0, "t");
    txn.add(CaWriter::command(0x00).addr({1, 2, 3, 4, 5}).cmd(0x30));
    BuiltSegment built = rig.bank.emit(txn);

    ASSERT_EQ(built.segment.items.size(), 3u);
    EXPECT_EQ(built.segment.items[0].type, CycleType::CmdLatch);
    auto bytes = [&](std::size_t i) {
        const auto &out = built.segment.items[i].out;
        return std::vector<std::uint8_t>(out.begin(), out.end());
    };
    EXPECT_EQ(bytes(0), std::vector<std::uint8_t>{0x00});
    EXPECT_EQ(built.segment.items[1].type, CycleType::AddrLatch);
    EXPECT_EQ(bytes(1), (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
    EXPECT_EQ(bytes(2), std::vector<std::uint8_t>{0x30});
}

TEST(Ufsm, ConfirmCommandsReserveTwb)
{
    EmitRig rig;
    Transaction confirm(0, "t");
    confirm.add(CaWriter::command(0x00).addr({1, 2, 3, 4, 5}).cmd(0x30));
    EXPECT_EQ(rig.bank.emit(confirm).segment.postDelay, rig.timing.tWb);

    Transaction plain(0, "t");
    plain.add(CaWriter::command(opcode::kReadStatus));
    plain.add(DataReader{.bytes = 1});
    EXPECT_EQ(rig.bank.emit(plain).segment.postDelay, 0u);
}

TEST(Ufsm, StatusReadGetsTwhr)
{
    EmitRig rig;
    Transaction txn(0, "t");
    txn.add(CaWriter::command(opcode::kReadStatus));
    txn.add(DataReader{.bytes = 1});
    BuiltSegment built = rig.bank.emit(txn);
    ASSERT_EQ(built.segment.items.size(), 2u);
    EXPECT_EQ(built.segment.items[1].preDelay, rig.timing.tWhr);
}

TEST(Ufsm, ColumnChangeGetsTccs)
{
    EmitRig rig;
    Transaction txn(0, "t");
    txn.add(CaWriter::command(opcode::kChangeReadCol1)
                .addr({0, 0})
                .cmd(opcode::kChangeReadCol2));
    txn.add(DataReader{.bytes = 64});
    BuiltSegment built = rig.bank.emit(txn);
    EXPECT_EQ(built.segment.items.back().preDelay, rig.timing.tCcs);
}

TEST(Ufsm, DataInAfterAddressGetsTadl)
{
    EmitRig rig;
    Transaction txn(0, "t");
    txn.add(CaWriter::command(opcode::kProgram1).addr({0, 0, 0, 0, 0}));
    const std::uint8_t params[] = {1, 2, 3, 4};
    txn.add(DataWriter{.bytes = 4, .inlineData = params});
    BuiltSegment built = rig.bank.emit(txn);
    EXPECT_GE(built.segment.items.back().preDelay, rig.timing.tAdl);
}

TEST(Ufsm, ChipControlSetsCeMask)
{
    EmitRig rig;
    Transaction txn(5, "t"); // default would be 1<<5
    txn.add(ChipControl{0b0110});
    txn.add(CaWriter::command(opcode::kReset));
    EXPECT_EQ(rig.bank.emit(txn).segment.ceMask, 0b0110u);

    Transaction fallback(5, "t");
    fallback.add(CaWriter::command(opcode::kReset));
    EXPECT_EQ(rig.bank.emit(fallback).segment.ceMask, 1u << 5);
}

TEST(Ufsm, TimerBecomesPureDelayItem)
{
    EmitRig rig;
    Transaction txn(0, "t");
    txn.add(Timer{ticks::fromUs(7)});
    BuiltSegment built = rig.bank.emit(txn);
    ASSERT_EQ(built.segment.items.size(), 1u);
    EXPECT_TRUE(built.segment.items[0].out.empty());
    EXPECT_EQ(built.segment.items[0].preDelay, ticks::fromUs(7));
}

TEST(Ufsm, ReaderSlicesTrackCaptureOffsets)
{
    EmitRig rig;
    Transaction txn(0, "t");
    txn.add(CaWriter::command(opcode::kReadStatus));
    txn.add(DataReader{.bytes = 2});
    txn.add(DataReader{.bytes = 5});
    BuiltSegment built = rig.bank.emit(txn);
    ASSERT_EQ(built.readers.size(), 2u);
    EXPECT_EQ(built.readers[0].offset, 0u);
    EXPECT_EQ(built.readers[1].offset, 2u);
}

TEST(Ufsm, MnemonicsAreReadable)
{
    EXPECT_EQ(mnemonic(CaWriter::command(0x70)), "CA[c70]");
    EXPECT_EQ(mnemonic(ChipControl{0x0F}), "CE[0f]");
    EXPECT_EQ(mnemonic(DataReader{.bytes = 4}), "DR[4B]");
    EXPECT_EQ(mnemonic(DataWriter{.dramAddr = 0, .bytes = 8, .eccEncode = false, .inlineData = {}}), "DW[8B]");
}

TEST(Packetizer, FetchReadsDramOrInline)
{
    EmitRig rig;
    std::vector<std::uint8_t> payload{9, 8, 7, 6};
    rig.dram.write(100, payload);

    DataWriter from_dram{.dramAddr = 100, .bytes = 4, .eccEncode = false, .inlineData = {}};
    EXPECT_EQ(rig.pktz.fetch(from_dram), payload);

    const std::uint8_t inline_bytes[] = {0xAA, 0xBB};
    DataWriter inline_dw{.dramAddr = 0, .bytes = 2, .eccEncode = false, .inlineData = inline_bytes};
    EXPECT_EQ(rig.pktz.fetch(inline_dw),
              (std::vector<std::uint8_t>{0xAA, 0xBB}));
}

TEST(Packetizer, FetchWithEccEncodeExpands)
{
    EmitRig rig;
    std::vector<std::uint8_t> payload(2048, 0x42);
    rig.dram.write(0, payload);
    DataWriter dw{.dramAddr = 0, .bytes = 2048, .eccEncode = true, .inlineData = {}};
    auto image = rig.pktz.fetch(dw);
    EXPECT_EQ(image.size(), rig.ecc.flashBytesFor(2048));
}

TEST(Packetizer, DeliverCorrectsAndStripsParity)
{
    EmitRig rig;
    std::vector<std::uint8_t> payload(1024, 0x37);
    auto image = rig.ecc.encode(payload);
    std::vector<std::uint32_t> flips{80};
    image[10] ^= 1; // bit 80

    DataReader dr;
    dr.bytes = static_cast<std::uint32_t>(image.size());
    dr.toDram = true;
    dr.dramAddr = 4096;
    dr.eccCorrect = true;
    dr.pageColumn = 0;
    EccReport report = rig.pktz.deliver(dr, image, flips);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.correctedBits, 1u);

    std::vector<std::uint8_t> got(1024);
    rig.dram.read(4096, got);
    EXPECT_EQ(got, payload);
}

TEST(Packetizer, DeliverRawLandsVerbatim)
{
    EmitRig rig;
    std::vector<std::uint8_t> raw{1, 2, 3};
    DataReader dr;
    dr.bytes = 3;
    dr.toDram = true;
    dr.dramAddr = 0;
    rig.pktz.deliver(dr, raw, {});
    std::vector<std::uint8_t> got(3);
    rig.dram.read(0, got);
    EXPECT_EQ(got, raw);
}

TEST(Dram, RangeCheckingPanics)
{
    EventQueue eq;
    dram::DramBuffer dram(eq, "d", 1024);
    std::vector<std::uint8_t> buf(100);
    EXPECT_THROW(dram.read(1000, buf), SimPanic);
    EXPECT_THROW(dram.write(1000, buf), SimPanic);
    EXPECT_NO_THROW(dram.write(924, buf));
}

TEST(Dram, TransferTimeScalesWithBytes)
{
    EventQueue eq;
    dram::DramBuffer dram(eq, "d", 1024);
    EXPECT_GT(dram.transferTime(1 << 20), dram.transferTime(1 << 10));
    EXPECT_GT(dram.transferTime(0), 0u); // setup latency
}

} // namespace
