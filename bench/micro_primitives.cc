/**
 * @file
 * Host-side microbenchmarks (google-benchmark) of the simulation
 * substrate's hot primitives: event-queue throughput, coroutine
 * creation/resume, ECC encode/decode, the LUN command decoder, and the
 * waveform emitter. These bound how fast the experiment harnesses run,
 * not the simulated SSD itself.
 */

#include <benchmark/benchmark.h>

#include "core/coro/op_task.hh"
#include "core/ufsm.hh"
#include "nand/lun.hh"
#include "sim/event_queue.hh"

using namespace babol;
using namespace babol::core;

namespace {

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.scheduleIn(1000, [&] { ++sink; }, "bench");
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleFire);

void
BM_EventQueueBatch(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < n; ++i)
            eq.scheduleIn(static_cast<Tick>(i % 97) * 10,
                          [&] { ++sink; }, "bench");
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * n);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueBatch)->Arg(1024)->Arg(16384);

Op<int>
trivialOp()
{
    co_return 42;
}

void
BM_CoroutineCreateResume(benchmark::State &state)
{
    for (auto _ : state) {
        Op<int> op = trivialOp();
        op.handle().resume();
        benchmark::DoNotOptimize(op.result());
    }
}
BENCHMARK(BM_CoroutineCreateResume);

void
BM_EccEncode(benchmark::State &state)
{
    EccEngine ecc;
    std::vector<std::uint8_t> page(16384, 0xA7);
    for (auto _ : state) {
        auto image = ecc.encode(page);
        benchmark::DoNotOptimize(image.data());
    }
    state.SetBytesProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_EccEncode);

void
BM_EccDecode(benchmark::State &state)
{
    EccEngine ecc;
    std::vector<std::uint8_t> page(16384, 0xA7);
    auto image = ecc.encode(page);
    std::vector<std::uint32_t> flips = {100, 9000, 40000, 100000};
    for (std::uint32_t bit : flips)
        image[bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));
    for (auto _ : state) {
        auto copy = image;
        EccReport report = ecc.decode(copy, 0, flips);
        benchmark::DoNotOptimize(report);
    }
    state.SetBytesProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_EccDecode);

void
BM_EccExtract(benchmark::State &state)
{
    EccEngine ecc;
    std::vector<std::uint8_t> page(16384, 0xA7);
    auto image = ecc.encode(page);
    for (auto _ : state) {
        auto data = ecc.extractData(image, 16384);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetBytesProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_EccExtract);

void
BM_LunStatusPollDecode(benchmark::State &state)
{
    EventQueue eq;
    nand::PackageConfig cfg = nand::hynixPackage();
    nand::Lun lun(eq, "lun", cfg, 0, 1);
    std::uint8_t status = 0;
    for (auto _ : state) {
        lun.commandLatch(nand::opcode::kReadStatus);
        std::span<std::uint8_t> out(&status, 1);
        lun.dataOut(out, eq.now() + cfg.timing.tWhr);
        benchmark::DoNotOptimize(status);
    }
}
BENCHMARK(BM_LunStatusPollDecode);

void
BM_UfsmEmitReadTransaction(benchmark::State &state)
{
    EventQueue eq;
    dram::DramBuffer dram(eq, "dram", 1 << 20);
    EccEngine ecc;
    Packetizer pktz(eq, "pktz", dram, ecc);
    UfsmBank bank(nand::hynixPackage().timing, pktz);

    for (auto _ : state) {
        Transaction txn(0, "READ.ca");
        txn.add(ChipControl{1});
        txn.add(CaWriter::command(0x00)
                    .addr({0, 0, 0, 5, 0})
                    .cmd(0x30));
        BuiltSegment built = bank.emit(txn);
        benchmark::DoNotOptimize(built.segment.items.data());
    }
}
BENCHMARK(BM_UfsmEmitReadTransaction);

} // namespace

BENCHMARK_MAIN();
