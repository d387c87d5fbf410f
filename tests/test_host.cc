/**
 * @file
 * NVMe-style host front-end tests: queue-full backpressure, in-order
 * completion under interrupt coalescing, doorbell determinism across
 * reruns, the HIC in-flight window, trace-replay sequence exactness,
 * tenant token-bucket throttling, and the p999 SLO plumbing.
 *
 * Runs in its own binary (babol_host_tests): the replay-sequence test
 * toggles the default context's trace recorder.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "host/nvme/client.hh"
#include "host/replay/replay.hh"
#include "obs/sim_context.hh"
#include "ssd/ssd.hh"

using namespace babol;
using namespace babol::host;
using namespace babol::host::nvme;

namespace {

ssd::SsdConfig
smallSsd()
{
    ssd::SsdConfig cfg;
    cfg.channels = 2;
    cfg.flavor = "hw-async";
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.package.geometry.pagesPerBlock = 8;
    cfg.channel.package.geometry.blocksPerPlane = 16;
    cfg.channel.chips = 2;
    cfg.dramBytes = 64ull << 20;
    return cfg;
}

ftl::FtlConfig
smallFtl()
{
    ftl::FtlConfig cfg;
    cfg.blocksPerChip = 8;
    cfg.overprovision = 0.25;
    return cfg;
}

/** Payload staging area, clear of the rings at NvmeConfig::dramBase. */
constexpr std::uint64_t kPayloadBase = 2 << 20;

/** A small SSD behind a HIC and the NVMe front end, one event queue. */
struct NvmeRig
{
    EventQueue eq;
    ssd::Ssd dev;
    ftl::PageFtl ftl;
    Hic hic;
    NvmeFrontEnd fe;

    explicit NvmeRig(NvmeConfig ncfg = {}, HicConfig hcfg = {})
        : dev(eq, "ssd", smallSsd()),
          ftl(eq, "ftl", dev, smallFtl()),
          hic(eq, "hic", ftl, hcfg),
          fe(eq, "nvme", hic, withBase(ncfg))
    {}

    static NvmeConfig
    withBase(NvmeConfig cfg)
    {
        cfg.dramBase = 1 << 20;
        return cfg;
    }

    NvmeCommand
    read(std::uint64_t slba, std::uint32_t sectors = 1)
    {
        NvmeCommand cmd;
        cmd.slba = slba;
        cmd.sectors = sectors;
        cmd.prp = kPayloadBase;
        return cmd;
    }
};

TEST(NvmeFrontEnd, QueueFullSubmissionRejected)
{
    NvmeConfig ncfg;
    ncfg.qp.sqEntries = 4; // capacity 3
    NvmeRig rig(ncfg);

    int completions = 0;
    auto cb = [&](bool ok) {
        EXPECT_TRUE(ok);
        ++completions;
    };
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(rig.fe.trySubmit(0, rig.read(i), cb));

    // Fourth submission: queue full, rejected with no side effects.
    EXPECT_TRUE(rig.fe.sqFull(0));
    EXPECT_FALSE(rig.fe.trySubmit(0, rig.read(3), cb));
    EXPECT_EQ(rig.fe.sqFullRejects(), 1u);
    EXPECT_EQ(rig.fe.submitted(), 3u);

    // A parked submitter retries once the CQ drain frees slots.
    bool retried = false, retry_ok = false;
    rig.fe.onSqSpace(0, [&] {
        retried = true;
        retry_ok = rig.fe.trySubmit(0, rig.read(3), cb);
    });
    rig.eq.run();

    EXPECT_TRUE(retried);
    EXPECT_TRUE(retry_ok);
    EXPECT_EQ(completions, 4);
    EXPECT_EQ(rig.fe.completed(), 4u);
    EXPECT_FALSE(rig.fe.sqFull(0));
}

TEST(NvmeFrontEnd, InOrderCompletionUnderCoalescing)
{
    NvmeConfig ncfg;
    ncfg.coalesceThreshold = 4;
    // Flash reads complete ~45 us apart; a long timer makes the
    // threshold the trigger, so batches provably form.
    ncfg.coalesceTimer = 200 * ticks::perUs;
    NvmeRig rig(ncfg);

    // Write the page first so the reads travel the full flash path.
    bool wrote = false;
    NvmeCommand w = rig.read(8);
    w.write = true;
    ASSERT_TRUE(rig.fe.trySubmit(0, w, [&](bool ok) {
        ASSERT_TRUE(ok);
        wrote = true;
    }));
    rig.eq.run();
    ASSERT_TRUE(wrote);

    // Same-LBA reads serialize through one chip's FIFO, so the CQ must
    // deliver them in exactly the submission order.
    constexpr int kIos = 12;
    std::vector<int> order;
    for (int i = 0; i < kIos; ++i) {
        ASSERT_TRUE(rig.fe.trySubmit(0, rig.read(8), [&order, i](bool ok) {
            EXPECT_TRUE(ok);
            order.push_back(i);
        }));
    }
    rig.eq.run();

    ASSERT_EQ(order.size(), std::size_t(kIos));
    for (int i = 0; i < kIos; ++i)
        EXPECT_EQ(order[i], i);

    // Coalescing must have batched completions: strictly fewer
    // interrupts than completions, and at least one multi-CQE batch.
    EXPECT_LT(rig.fe.interrupts(), rig.fe.completed());
    EXPECT_GE(rig.fe.maxCoalesced(), 2u);
}

/** One fixed mixed workload; returns the full doorbell sequence. */
std::vector<std::tuple<Tick, std::uint32_t, std::uint32_t, bool>>
doorbellRun()
{
    NvmeConfig ncfg;
    ncfg.queuePairs = 2;
    NvmeRig rig(ncfg);

    std::vector<std::tuple<Tick, std::uint32_t, std::uint32_t, bool>> log;
    rig.fe.setDoorbellHook(
        [&](Tick t, std::uint32_t qid, std::uint32_t val, bool sq) {
            log.emplace_back(t, qid, val, sq);
        });

    Rng rng(7);
    int completions = 0;
    for (int i = 0; i < 24; ++i) {
        NvmeCommand cmd = rig.read(rng.uniform(0, 127));
        cmd.write = rng.chance(0.25);
        EXPECT_TRUE(rig.fe.trySubmit(i % 2, cmd,
                                     [&](bool) { ++completions; }));
    }
    rig.eq.run();
    EXPECT_EQ(completions, 24);
    return log;
}

TEST(NvmeFrontEnd, DoorbellDeterminismAcrossReruns)
{
    auto first = doorbellRun();
    auto second = doorbellRun();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(NvmeFrontEnd, HicBackpressureBoundsInflight)
{
    HicConfig hcfg;
    hcfg.maxInflight = 2;
    NvmeConfig ncfg;
    ncfg.maxInflight = 8;
    NvmeRig rig(ncfg, hcfg);

    int completions = 0;
    std::uint32_t deepest = 0;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(rig.fe.trySubmit(0, rig.read(i), [&](bool ok) {
            EXPECT_TRUE(ok);
            deepest = std::max(deepest, rig.hic.inFlight());
            ++completions;
        }));
    }
    rig.eq.run();

    EXPECT_EQ(completions, 10);
    // The device window wanted 8 but the HIC cap is 2: the pump must
    // have stalled, and the HIC window can never have been exceeded
    // (Hic::submit asserts; deepest is the view at completion time).
    EXPECT_GT(rig.fe.hicStalls(), 0u);
    EXPECT_LE(deepest, 2u);
    EXPECT_EQ(rig.hic.inFlight(), 0u);
}

TEST(NvmeFrontEnd, WeightedArbitrationConfig)
{
    NvmeConfig ncfg;
    ncfg.queuePairs = 2;
    ncfg.arb = NvmeConfig::Arbitration::Weighted;
    ncfg.weights = {3, 1};
    NvmeRig rig(ncfg);

    int completions = 0;
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(rig.fe.trySubmit(i % 2, rig.read(i),
                                     [&](bool ok) {
                                         EXPECT_TRUE(ok);
                                         ++completions;
                                     }));
    }
    rig.eq.run();
    EXPECT_EQ(completions, 16);
    EXPECT_EQ(rig.fe.completed(), 16u);
}

TEST(Replay, SequenceExactlyMatchesTrace)
{
    // The replayed op stream must equal the trace file's, in order,
    // even when pacing makes several records due at once. Verified
    // against the trace ring's submission markers.
    const std::string trace_text = "# comment line\n"
                                   "0.0  R 16 2\n"
                                   "1.5  W 64 1\n"
                                   "1.5  R 16 4\n"
                                   "2.0  W 65 1\n"
                                   "10.0 R 300 8\n"
                                   "10.0 R 308 8\n"
                                   "15.5 W 66 2\n";
    std::istringstream in(trace_text);
    auto ops = replay::parseTrace(in, "inline");
    ASSERT_EQ(ops.size(), 7u);

    obs::TraceRecorder &tr = SimContext::processDefault().trace;
    const bool was_enabled = tr.enabled();
    tr.setEnabled(true);
    tr.clear();

    {
        NvmeRig rig;
        std::istringstream again(trace_text);
        replay::ReplayConfig rcfg;
        rcfg.dramBase = 8 << 20; // clear of the rings at 1 MiB
        replay::ReplayEngine rep(rig.eq, "replay", rig.fe,
                                 replay::parseTrace(again, "inline"), rcfg);
        bool done = false;
        rep.start([&] { done = true; });
        rig.eq.run();
        ASSERT_TRUE(done);
        EXPECT_EQ(rep.completed(), ops.size());
        EXPECT_EQ(rep.errors(), 0u);
    }

    const std::uint32_t track = obs::interner().intern("replay");
    const std::uint32_t label = obs::interner().intern("replay.submit");
    std::vector<std::uint64_t> markers;
    tr.forEach([&](std::uint64_t, const obs::TraceRecord &r) {
        if (r.kind == obs::RecKind::Instant && r.track == track &&
            r.label == label)
            markers.push_back(r.arg);
    });
    tr.clear();
    tr.setEnabled(was_enabled);

    ASSERT_EQ(markers.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(markers[i],
                  replay::ReplayEngine::encodeArg(
                      ops[i].write, ops[i].sectors, ops[i].lba))
            << "record " << i << " out of sequence";
    }
}

TEST(Replay, ParserRejectsMalformedTraces)
{
    auto parse = [](const std::string &text) {
        std::istringstream in(text);
        return replay::parseTrace(in, "bad");
    };
    EXPECT_THROW(parse("0.0 X 10 1\n"), SimFatal);       // bad op
    EXPECT_THROW(parse("5.0 R 10 1\n1.0 R 10 1\n"),      // time goes back
                 SimFatal);
    EXPECT_THROW(parse("0.0 R 10 0\n"), SimFatal);       // zero length
    EXPECT_THROW(parse("0.0 R\n"), SimFatal);            // truncated
    EXPECT_THROW(parse("0.0 R 10 1 junk\n"), SimFatal);  // trailing junk
    EXPECT_THROW(parse("# only comments\n"), SimFatal);  // empty trace
    EXPECT_THROW(parse("0 R -1 8\n"), SimFatal);        // signed lba
    EXPECT_THROW(parse("0 R 12abc 8\n"), SimFatal);     // junk lba
    EXPECT_THROW(parse("0 R 18446744073709551616 8\n"), // lba > 2^64-1
                 SimFatal);
    EXPECT_THROW(parse("0 R 5 -8\n"), SimFatal);        // signed length
    EXPECT_THROW(parse("0 R 5 1048577\n"), SimFatal);   // length > 2^20
    EXPECT_THROW(parse("1e300 R 5 8\n"), SimFatal);     // tick overflow
    EXPECT_THROW(parse("nan R 5 8\n"), SimFatal);       // not a time
    EXPECT_THROW(replay::loadTraceFile("/nonexistent/trace.txt"),
                 SimFatal);
}

TEST(TenantClient, TokenBucketCapsRate)
{
    NvmeRig rig;
    obs::MetricsRegistry reg;

    TenantConfig tcfg;
    tcfg.tenant = 0;
    tcfg.seed = 11;
    tcfg.queueDepth = 4;
    tcfg.totalIos = 21;
    tcfg.ratePerSec = 10000; // one token per 100 us
    tcfg.burst = 1;
    tcfg.dramBase = kPayloadBase;
    TenantClient client(rig.eq, "tenant0000", rig.fe, reg, tcfg);

    bool done = false;
    client.start([&] { done = true; });
    rig.eq.run();

    ASSERT_TRUE(done);
    EXPECT_EQ(client.completed(), 21u);
    EXPECT_EQ(client.errors(), 0u);
    EXPECT_GT(client.throttledWaits(), 0u);

    // 21 I/Os with burst 1 need 20 matured tokens: >= 2 ms of
    // simulated time, however fast the device is.
    EXPECT_GE(rig.eq.now(), 20u * 100 * ticks::perUs);
}

TEST(TenantClient, SloReportCarriesTailPercentiles)
{
    NvmeRig rig;
    obs::MetricsRegistry reg;

    TenantConfig tcfg;
    tcfg.tenant = 3;
    tcfg.seed = 5;
    tcfg.queueDepth = 2;
    tcfg.totalIos = 12;
    tcfg.dramBase = kPayloadBase;
    TenantClient client(rig.eq, "tenant0003", rig.fe, reg, tcfg);
    bool done = false;
    client.start([&] { done = true; });
    rig.eq.run();
    ASSERT_TRUE(done);

    auto snap = reg.snapshot();
    const auto *dist = snap.findDist("tenant0003.latency_us");
    ASSERT_NE(dist, nullptr);
    EXPECT_EQ(dist->count, 12u);
    EXPECT_GT(dist->p999, 0.0);
    EXPECT_GE(dist->p999, dist->p99);
    EXPECT_GE(dist->p99, dist->p50);
    EXPECT_EQ(snap.scalar("tenant0003.completed"), 12u);

    std::ostringstream json;
    obs::MetricsRegistry::writeJson(json, snap);
    EXPECT_NE(json.str().find("\"p999\""), std::string::npos);
}

TEST(LogHistogram, TailPercentilesStayWithinRelativeError)
{
    // 100k uniform samples in [1, 100000]: every percentile's true
    // value is known, and the base-2/16-sub-bucket histogram promises
    // ~3% worst-case relative error — including deep tails.
    LogHistogram h;
    for (int i = 1; i <= 100000; ++i)
        h.add(double(i));
    for (double p : {50.0, 95.0, 99.0, 99.9, 99.99}) {
        const double want = 100000.0 * p / 100.0;
        const double got = h.percentile(p);
        EXPECT_NEAR(got, want, want * 0.035)
            << "p" << p << " outside histogram error bound";
    }

    // Through Distribution: p999 must see every sample even after the
    // kept-sample reservoir has decimated (maxSamples 256 << 100k).
    Distribution d("lat", 256);
    for (int i = 1; i <= 100000; ++i)
        d.sample(double(i));
    EXPECT_NEAR(d.histPercentile(99.9), 99900.0, 99900.0 * 0.035);
    EXPECT_NEAR(d.histPercentile(50), 50000.0, 50000.0 * 0.035);
}

} // namespace
