#include "calibration.hh"

#include "nand/onfi.hh"

namespace babol::core {

using namespace nand;

Op<std::uint8_t>
setTimingModeOp(OpEnv &env, std::uint32_t chip, std::uint8_t mode_p1)
{
    Transaction txn(chip, strfmt("SET_TIMING c%u p%02x", chip, mode_p1));
    txn.add(ChipControl{1u << chip});
    txn.add(CaWriter::command(opcode::kSetFeatures)
                .addr({feature::kTimingMode}));
    txn.add(Timer{env.timing().tAdl});
    // The frame holds the parameters until the transaction completes.
    const std::array<std::uint8_t, 4> params = {mode_p1, 0, 0, 0};
    DataWriter dw;
    dw.bytes = 4;
    dw.inlineData = params;
    txn.add(dw);
    co_await env.rt.submit(std::move(txn));

    // The device re-times its interface during tFEAT; polling it in the
    // old mode would be a protocol error, so wait it out instead.
    co_await env.rt.sleepFor(env.timing().tFeat * 2);
    co_return 0;
}

Op<Tick>
calibratePhaseOp(OpEnv &env, std::uint32_t chip)
{
    chan::ChannelBus &bus = env.sys.bus();
    const Tick window = bus.phy().phaseWindow();
    const Tick step = std::max<Tick>(window / 2, 1);
    const Tick sweep_end = 6 * window + 1;

    // Sweep the adjustment and record which settings read the ONFI
    // signature back intact.
    std::vector<std::uint8_t> passed;
    for (Tick adj = 0; adj < sweep_end; adj += step) {
        bus.setPhaseAdjust(chip, adj);
        std::vector<std::uint8_t> id =
            co_await readIdOp(env, chip, id_address::kOnfi, 4);
        bool ok = id.size() == 4 && id[0] == 'O' && id[1] == 'N' &&
                  id[2] == 'F' && id[3] == 'I';
        passed.push_back(ok ? 1 : 0);
    }

    // Choose the center of the widest passing run.
    std::size_t best_start = 0, best_len = 0, run_start = 0, run_len = 0;
    for (std::size_t i = 0; i <= passed.size(); ++i) {
        if (i < passed.size() && passed[i]) {
            if (run_len == 0)
                run_start = i;
            ++run_len;
        } else {
            if (run_len > best_len) {
                best_len = run_len;
                best_start = run_start;
            }
            run_len = 0;
        }
    }
    if (best_len == 0) {
        panic("chip %u: no passing phase window found (skew beyond sweep "
              "range?)",
              chip);
    }
    Tick center = (best_start + best_len / 2) * step;
    bus.setPhaseAdjust(chip, center);
    co_return center;
}

Op<BringUpReport>
identifyChipOp(OpEnv &env, std::uint32_t chip)
{
    BringUpReport report;

    co_await resetOp(env, chip);

    std::vector<std::uint8_t> sig =
        co_await readIdOp(env, chip, id_address::kOnfi, 4);
    report.onfiSignatureOk = sig.size() == 4 && sig[0] == 'O' &&
                             sig[1] == 'N' && sig[2] == 'F' &&
                             sig[3] == 'I';
    if (!report.onfiSignatureOk)
        co_return report;

    report.params = co_await readParamPageOp(env, chip);
    co_return report;
}

Op<std::vector<BringUpReport>>
bringUpChannelOp(OpEnv &env, std::uint32_t target_mt)
{
    const std::uint32_t chips = env.sys.chipCount();
    std::vector<BringUpReport> reports;

    // Phase 1 (SDR): identify every chip and read its parameter page.
    std::uint32_t common_mt = target_mt;
    for (std::uint32_t chip = 0; chip < chips; ++chip) {
        BringUpReport report = co_await identifyChipOp(env, chip);
        if (!report.onfiSignatureOk)
            panic("chip %u: ONFI signature missing at boot", chip);
        common_mt = std::min(common_mt, report.params.maxTransferMT);
        reports.push_back(std::move(report));
    }
    std::uint32_t mt = common_mt >= 200 ? 200 : 100;

    // Phase 2: switch every chip's data interface, then the PHY.
    std::uint8_t p1 = static_cast<std::uint8_t>(0x20 | (mt >= 200 ? 1 : 0));
    for (std::uint32_t chip = 0; chip < chips; ++chip)
        co_await setTimingModeOp(env, chip, p1);
    env.sys.bus().phy().setMode(DataInterface::Nvddr2);
    env.sys.bus().phy().setRateMT(mt);

    // Phase 3 (NV-DDR2): per-chip sampling-phase calibration.
    for (std::uint32_t chip = 0; chip < chips; ++chip) {
        reports[chip].negotiatedMT = mt;
        reports[chip].phaseAdjust = co_await calibratePhaseOp(env, chip);
        reports[chip].phaseLocked = env.sys.bus().phaseOk(chip);
    }
    co_return reports;
}

} // namespace babol::core
