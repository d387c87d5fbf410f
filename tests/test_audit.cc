/**
 * @file
 * The online ONFI conformance auditor: LUN guard diagnostics with span
 * context, datasheet fault injection (a shortened tWB caught against
 * the genuine timings), channel invariants, cross-layer span
 * conservation, flight-recorder behaviour across ring wraparound,
 * custom rule registration, determinism on a seeded 4-channel device,
 * and the log-histogram percentile machinery behind MetricsSnapshot.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "chan/bus.hh"
#include "ftl/ftl.hh"
#include "host/fio.hh"
#include "nand/param_page.hh"
#include "obs/sim_context.hh"
#include "sim/stats.hh"
#include "ssd/ssd.hh"

using namespace babol;
using namespace babol::chan;
using namespace babol::nand;
using namespace babol::time_literals;
namespace audit = babol::obs::audit;

namespace {

/**
 * Every test runs on its own SimContext, armed in collector mode
 * (diagnostics gathered, nothing thrown), so no auditor, trace or fault
 * state outlives it.
 */
class AuditTest : public ::testing::Test
{
  protected:
    void SetUp() override { armCollector(); }

    void
    armCollector(std::optional<TimingParams> datasheet = std::nullopt)
    {
        audit::Auditor::Config cfg;
        cfg.throwOnDiagnostic = false;
        cfg.enableTrace = true;
        cfg.datasheet = datasheet;
        ctx.audit.arm(cfg);
    }

    const std::vector<audit::Diagnostic> &
    diags() const
    {
        return ctx.audit.diagnostics();
    }

    std::size_t
    countRule(const std::string &rule) const
    {
        std::size_t n = 0;
        for (const audit::Diagnostic &d : diags())
            if (d.rule == rule)
                ++n;
        return n;
    }

    const audit::Diagnostic *
    firstOf(const std::string &rule) const
    {
        for (const audit::Diagnostic &d : diags())
            if (d.rule == rule)
                return &d;
        return nullptr;
    }

    SimContext ctx;
};

/** One chip on one bus in NV-DDR2, timing configurable per test. */
struct AuditRig
{
    EventQueue eq;
    PackageConfig cfg;
    std::unique_ptr<Package> pkg;
    std::unique_ptr<ChannelBus> bus;

    explicit AuditRig(SimContext &ctx, PackageConfig c = hynixPackage())
        : eq(ctx), cfg(std::move(c))
    {
        bus = std::make_unique<ChannelBus>(eq, "bus", cfg.timing, 200);
        pkg = std::make_unique<Package>(eq, "pkg", cfg, 42);
        bus->attach(pkg.get());
        pkg->lun(0).bootstrapInterface(DataInterface::Nvddr2, 200);
        bus->phy().setMode(DataInterface::Nvddr2);
    }

    SegmentResult
    run(Segment seg)
    {
        seg.ceMask = 1;
        SegmentResult out;
        bool done = false;
        bus->issue(std::move(seg), [&](SegmentResult r) {
            out = std::move(r);
            done = true;
        });
        while (!done && eq.step()) {
        }
        EXPECT_TRUE(done);
        return out;
    }

    std::uint8_t
    pollReady()
    {
        for (int i = 0; i < 10000; ++i) {
            Segment seg;
            seg.label = "poll";
            seg.items.push_back(SegmentItem::command(opcode::kReadStatus));
            SegmentItem out = SegmentItem::dataOut(1);
            out.preDelay = cfg.timing.tWhr;
            seg.items.push_back(out);
            std::uint8_t st = run(std::move(seg)).dataOut.at(0);
            if (st & status::kRdy)
                return st;
        }
        ADD_FAILURE() << "LUN never turned ready";
        return 0;
    }

    Segment
    readLatch(std::uint32_t block, std::uint32_t page)
    {
        Segment seg;
        seg.label = "read.ca";
        seg.items.push_back(SegmentItem::command(opcode::kRead1));
        seg.items.push_back(SegmentItem::address(
            encodeColRow(cfg.geometry, 0, {0, block, page})));
        seg.items.push_back(SegmentItem::command(opcode::kRead2));
        seg.postDelay = cfg.timing.tWb;
        return seg;
    }
};

// ---------------------------------------------------------------------
// LUN protocol guards as structured diagnostics (collector mode)
// ---------------------------------------------------------------------

TEST_F(AuditTest, LunBusyGuardReportsDiagnosticWithSpanContext)
{
    AuditRig rig(ctx);
    rig.run(rig.readLatch(0, 0));
    // A second READ dialog while the array is busy: illegal, and the
    // guard that used to panic now files a structured diagnostic.
    rig.run(rig.readLatch(0, 1));

    ASSERT_GE(countRule("lun.busy"), 1u);
    const audit::Diagnostic *d = firstOf("lun.busy");
    EXPECT_EQ(d->check, audit::Check::LunProtocol);
    EXPECT_NE(d->where.find("lun"), std::string::npos);
    EXPECT_GT(d->at, 0u);
    // The violation fired inside the bus segment's ambient span, and
    // the flight recorder captured the preceding waveform.
    EXPECT_NE(d->span, obs::kNoSpan);
    EXPECT_NE(d->flight.find("us]"), std::string::npos);
    EXPECT_NE(d->flight.find("read.ca"), std::string::npos);
}

TEST_F(AuditTest, TadlViolationCaughtAtBothBusAndLunLayers)
{
    AuditRig rig(ctx);
    Segment seg;
    seg.label = "program.bad";
    seg.items.push_back(SegmentItem::command(opcode::kProgram1));
    seg.items.push_back(SegmentItem::address(
        encodeColRow(rig.cfg.geometry, 0, {0, 0, 0})));
    // Deliberately no tADL preDelay before the data burst.
    seg.dataIn(std::vector<std::uint8_t>(64, 0xAB));
    seg.items.push_back(SegmentItem::command(opcode::kProgram2));
    seg.postDelay = rig.cfg.timing.tWb;
    rig.run(std::move(seg));
    rig.pollReady();

    // The waveform-level rule and the die's own guard both see it.
    ASSERT_GE(countRule("onfi.tADL"), 2u);
    bool from_bus = false, from_lun = false;
    for (const audit::Diagnostic &d : diags()) {
        if (d.rule != "onfi.tADL")
            continue;
        if (d.check == audit::Check::AcTiming)
            from_bus = true;
        if (d.check == audit::Check::LunProtocol)
            from_lun = true;
    }
    EXPECT_TRUE(from_bus);
    EXPECT_TRUE(from_lun);
}

// ---------------------------------------------------------------------
// Fault injection: shortened tWB caught against the datasheet
// ---------------------------------------------------------------------

TEST_F(AuditTest, ShortenedTwbCaughtAgainstDatasheetWithFlightDump)
{
    // Mis-configure the preset the controller runs with: tWB collapsed
    // to 1 ns, so its (conforming-to-config) waveforms violate the real
    // part's requirement. Audit against the genuine datasheet.
    PackageConfig doctored = hynixPackage();
    doctored.timing.tWb = 1_ns;
    armCollector(hynixPackage().timing);

    AuditRig rig(ctx, doctored);
    rig.run(rig.readLatch(0, 0)); // postDelay = doctored 1 ns tWB
    rig.pollReady();

    ASSERT_EQ(countRule("onfi.tWB"), 1u);
    const audit::Diagnostic *d = firstOf("onfi.tWB");
    EXPECT_EQ(d->check, audit::Check::AcTiming);
    EXPECT_EQ(d->where, "bus");
    EXPECT_NE(d->message.find("tWB requires 100.0 ns"),
              std::string::npos);
    // The flight dump shows the offending dialog: the READ latch that
    // started the array op, then the status poll that came too soon.
    EXPECT_NE(d->flight.find("read.ca"), std::string::npos);
    EXPECT_NE(d->flight.find("poll"), std::string::npos);
}

// ---------------------------------------------------------------------
// Fault-expected suppression: violations inside an injected fault's
// window are tagged, counted separately, and never fail the run
// ---------------------------------------------------------------------

TEST_F(AuditTest, FaultExpectedViolationIsSuppressedNotDoubleReported)
{
    // A stuck-busy strike on this package opens a long suppression
    // window on its LUN.
    fault::FaultPlan plan;
    plan.seed = 5;
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::StuckBusy;
    spec.where = "pkg";
    spec.extraBusy = 100 * ticks::perUs;
    spec.suppressTicks = 50 * ticks::perMs;
    plan.faults.push_back(spec);
    ctx.faults.arm(plan);

    // Sanitizer semantics: any unsuppressed diagnostic must panic.
    audit::Auditor::Config cfg;
    cfg.throwOnDiagnostic = true;
    cfg.enableTrace = true;
    ctx.audit.arm(cfg);

    AuditRig rig(ctx);
    rig.run(rig.readLatch(0, 0)); // strikes: array op overruns by 100 us
    ASSERT_EQ(ctx.faults.injectedTotal(), 1u);

    // Illegal second READ dialog while the (faulted) array is busy.
    // The guard fires exactly once, tagged fault-expected — no panic,
    // and no second report from the legacy panic path.
    EXPECT_NO_THROW(rig.run(rig.readLatch(0, 1)));

    ASSERT_GE(countRule("lun.busy"), 1u);
    for (const audit::Diagnostic &d : diags())
        EXPECT_TRUE(d.suppressed) << d.rule << ": " << d.message;
    EXPECT_GE(ctx.faults.suppressedViolations(), 1u);
    EXPECT_EQ(ctx.audit.unsuppressedCount(), 0u);

}

TEST_F(AuditTest, ViolationOutsideTheFaultWindowStillPanics)
{
    // No campaign on this test's context: full sanitizer semantics.

    audit::Auditor::Config cfg;
    cfg.throwOnDiagnostic = true;
    cfg.enableTrace = true;
    ctx.audit.arm(cfg);

    AuditRig rig(ctx);
    rig.run(rig.readLatch(0, 0));
    EXPECT_THROW(rig.run(rig.readLatch(0, 1)), SimPanic);
}

// ---------------------------------------------------------------------
// Channel invariants
// ---------------------------------------------------------------------

TEST_F(AuditTest, DoubleDriveReportedInsteadOfPanic)
{
    AuditRig rig(ctx);
    Segment a;
    a.label = "status.a";
    a.items.push_back(SegmentItem::command(opcode::kReadStatus));
    a.ceMask = 1;
    rig.bus->issue(std::move(a), [](SegmentResult) {});

    Segment b; // issued while the bus is still reserved for 'a'
    b.label = "status.b";
    b.items.push_back(SegmentItem::command(opcode::kReadStatus));
    b.ceMask = 1;
    rig.bus->issue(std::move(b), [](SegmentResult) {});
    rig.eq.run();

    ASSERT_GE(countRule("chan.double-drive"), 1u);
    const audit::Diagnostic *d = firstOf("chan.double-drive");
    EXPECT_EQ(d->check, audit::Check::Channel);
    EXPECT_NE(d->message.find("status.b"), std::string::npos);
}

TEST_F(AuditTest, StarvationBoundFlagsLongFifoWaits)
{
    auto &aud = ctx.audit;
    const Tick bound = aud.config().starvationBound;
    aud.tapFifoWait("eu0", "READ", 30 * ticks::perMs, bound);
    EXPECT_EQ(countRule("chan.starvation"), 0u); // at the bound: fine
    aud.tapFifoWait("eu0", "READ", 30 * ticks::perMs, bound + 1_us);
    ASSERT_EQ(countRule("chan.starvation"), 1u);
    EXPECT_EQ(firstOf("chan.starvation")->check, audit::Check::Channel);
}

// ---------------------------------------------------------------------
// Cross-layer span conservation
// ---------------------------------------------------------------------

TEST_F(AuditTest, ConservationAcceptsWellFormedSpans)
{
    auto &tr = ctx.trace;
    obs::Interner &in = tr.interner();
    const std::uint32_t track = in.intern("ctrl");
    obs::SpanId op = tr.beginSpan(track, in.intern("op.read"), 1000);
    tr.complete(track, in.intern("READ.seg"), 1100, 1200, op);
    tr.endSpan(op, 1300);

    ctx.audit.finish();
    EXPECT_TRUE(diags().empty());
}

TEST_F(AuditTest, ConservationDetectsLeakedAndMalformedSpans)
{
    auto &tr = ctx.trace;
    obs::Interner &in = tr.interner();
    const std::uint32_t track = in.intern("ctrl");

    // An op that closes but never produced a bus segment.
    obs::SpanId no_seg = tr.beginSpan(track, in.intern("op.read"), 1000);
    tr.endSpan(no_seg, 2000);
    // An op that never closes.
    tr.beginSpan(track, in.intern("op.dangling"), 1500);
    // A span that ends before it begins.
    obs::SpanId neg = tr.beginSpan(track, in.intern("op.neg"), 3000);
    tr.endSpan(neg, 2500);
    // An END with no matching BEGIN anywhere in the window.
    tr.endSpan(0xFEEDFACE, 2600);

    ctx.audit.finish();
    EXPECT_EQ(countRule("op.no-segment"), 2u); // no_seg and neg
    EXPECT_EQ(countRule("span.never-closed"), 1u);
    EXPECT_EQ(countRule("span.negative"), 1u);
    EXPECT_EQ(countRule("span.orphan-end"), 1u);
    for (const audit::Diagnostic &d : diags())
        EXPECT_EQ(d.check, audit::Check::Conservation);
}

TEST_F(AuditTest, ConservationSkippedWhenRingWrapped)
{
    auto &tr = ctx.trace;
    tr.setCapacity(8);
    obs::Interner &in = tr.interner();
    const std::uint32_t track = in.intern("ctrl");

    // A span whose BEGIN the wraparound will push out of the window.
    tr.beginSpan(track, in.intern("op.lost"), 100);
    for (int i = 0; i < 20; ++i)
        tr.complete(track, in.intern("seg"), i * 10, i * 10 + 5);
    ASSERT_GT(tr.droppedRecords(), 0u);

    // Accounting over a partial window would only produce noise.
    ctx.audit.finish();
    EXPECT_TRUE(diags().empty());

    // Flight dumps still work on the wrapped ring — and say what is
    // missing instead of silently truncating.
    auto &aud = ctx.audit;
    aud.tapFifoWait("eu0", "READ", 0, aud.config().starvationBound + 1_us);
    ASSERT_EQ(diags().size(), 1u);
    EXPECT_NE(diags().front().flight.find("earlier record(s) not shown"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------

TEST_F(AuditTest, CustomRuleSeesEveryExecutedSegment)
{
    struct CountingRule : audit::Rule
    {
        int *count;
        std::string *lastLabel;
        std::size_t *lastCycles;
        const char *name() const override { return "test.count"; }
        void
        onSegment(const audit::SegmentView &seg, audit::Auditor &) override
        {
            ++*count;
            *lastLabel = std::string(seg.label);
            *lastCycles = seg.cycles.size();
            EXPECT_EQ(seg.ceMask, 1u);
            EXPECT_NE(seg.timing, nullptr);
        }
    };

    int count = 0;
    std::string last_label;
    std::size_t last_cycles = 0;
    auto rule = std::make_unique<CountingRule>();
    rule->count = &count;
    rule->lastLabel = &last_label;
    rule->lastCycles = &last_cycles;
    ctx.audit.addRule(std::move(rule));

    AuditRig rig(ctx);
    rig.run(rig.readLatch(0, 0));
    EXPECT_EQ(count, 1);
    EXPECT_EQ(last_label, "read.ca");
    // CMD 00h + row/col address cycles + CMD 30h.
    EXPECT_GE(last_cycles, 3u);
    EXPECT_EQ(ctx.audit.segmentsAudited(),
              static_cast<std::uint64_t>(count));
    EXPECT_TRUE(diags().empty());
}

// ---------------------------------------------------------------------
// Determinism: identical seeded 4-channel runs audit identically
// ---------------------------------------------------------------------

TEST_F(AuditTest, SeededFourChannelDeviceAuditsCleanAndDeterministically)
{
    auto run_once = [] {
        SimContext run_ctx;
        audit::Auditor::Config acfg;
        acfg.throwOnDiagnostic = false;
        acfg.enableTrace = true;
        run_ctx.audit.arm(acfg);

        EventQueue eq(run_ctx);
        ssd::SsdConfig cfg;
        cfg.channels = 4;
        cfg.flavor = "coro";
        cfg.channel.package = hynixPackage();
        cfg.channel.package.geometry.pagesPerBlock = 32;
        cfg.channel.chips = 2;
        cfg.channel.rateMT = 200;
        cfg.channel.seed = 7;
        ssd::Ssd device(eq, "ssd", cfg);

        ftl::FtlConfig fcfg;
        fcfg.blocksPerChip = 4;
        fcfg.overprovision = 0.25;
        ftl::PageFtl ftl(eq, "ftl", device, fcfg);

        host::FioConfig fill_cfg;
        fill_cfg.queueDepth = 8;
        host::FioEngine filler(eq, "fill", ftl, fill_cfg);
        bool filled = false;
        filler.fill(64, [&] { filled = true; });
        eq.run();
        EXPECT_TRUE(filled);

        host::FioConfig io;
        io.pattern = host::FioConfig::Pattern::Random;
        io.queueDepth = 8;
        io.extentPages = 64;
        io.totalIos = 100;
        io.dramBase = 8 << 20;
        io.seed = 99;
        host::FioEngine engine(eq, "fio", ftl, io);
        bool done = false;
        engine.start([&] { done = true; });
        eq.run();
        EXPECT_TRUE(done);
        EXPECT_EQ(engine.errors(), 0u);

        auto &aud = run_ctx.audit;
        aud.finish();
        return std::make_pair(aud.segmentsAudited(),
                              aud.diagnostics().size());
    };

    auto first = run_once();
    auto second = run_once();
    EXPECT_GT(first.first, 0u);
    EXPECT_EQ(first.second, 0u) << "seeded run is not audit-clean";
    EXPECT_EQ(first, second) << "audit is not deterministic";
}

// ---------------------------------------------------------------------
// Log-histogram percentiles (MetricsSnapshot / ablation p99 backend)
// ---------------------------------------------------------------------

TEST(LogHistogram, PercentilesWithinBucketRelativeError)
{
    LogHistogram h;
    for (int i = 1; i <= 10000; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.total(), 10000u);
    // 16 sub-buckets per octave → ≤ ~3.2% relative bucket error.
    for (double p : {10.0, 50.0, 90.0, 99.0}) {
        const double exact = p / 100.0 * 10000.0;
        EXPECT_NEAR(h.percentile(p), exact, exact * 0.04)
            << "p" << p;
    }
}

TEST(LogHistogram, EdgeCasesUnderflowOverflowAndReset)
{
    LogHistogram h;
    EXPECT_EQ(h.percentile(50), 0.0); // empty

    h.add(0.0);
    h.add(-3.0);
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.percentile(50), 0.0); // underflow bucket reads as 0

    h.reset();
    EXPECT_EQ(h.total(), 0u);

    h.add(1e20); // beyond 2^48: lands in the overflow bucket
    EXPECT_EQ(h.percentile(100),
              std::ldexp(1.0, LogHistogram::kMaxExp));
}

TEST(LogHistogram, DistributionHistPercentileTracksExactSamples)
{
    Distribution d("lat");
    EXPECT_EQ(d.histPercentile(99), 0.0); // empty

    d.sample(42.0);
    // Clamping to the observed [min, max] makes single values exact.
    EXPECT_EQ(d.histPercentile(50), 42.0);

    d.reset();
    for (int i = 0; i < 20000; ++i)
        d.sample(50.0 + (i % 997));
    const double exact = d.percentile(99);
    EXPECT_NEAR(d.histPercentile(99), exact, exact * 0.05);
}

} // namespace
