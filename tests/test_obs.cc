/**
 * @file
 * Observability subsystem tests: label interning, the ring-buffer
 * recorder, the metrics registry, and end-to-end span lifecycles over
 * a seeded fio run (host -> FTL -> controller op -> bus segments ->
 * LUN busy), including Perfetto JSON schema sanity.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>

#include "chan/trace.hh"
#include "core/hw/hw_controller.hh"
#include "ftl/ftl.hh"
#include "host/fio.hh"
#include "obs/cli.hh"
#include "obs/perfetto.hh"
#include "obs/sim_context.hh"

using namespace babol;
using namespace babol::core;
using namespace babol::obs;

namespace {

// ---------------------------------------------------------------------
// A minimal recursive-descent JSON syntax checker (no external deps) —
// enough to assert the exporters emit well-formed JSON.
// ---------------------------------------------------------------------

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_; // skip the escaped char
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    value()
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return false;
            ++pos_;
            if (!value())
                return false;
            skipWs();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Interner
// ---------------------------------------------------------------------

TEST(Interner, SameLabelSameId)
{
    Interner in;
    std::uint32_t a = in.intern("READ 2-plane");
    std::uint32_t b = in.intern("READ 2-plane");
    std::uint32_t c = in.intern("PROGRAM");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(in.size(), 2u);
    EXPECT_EQ(in.label(a), "READ 2-plane");
    EXPECT_EQ(in.label(c), "PROGRAM");
    EXPECT_EQ(in.find("READ 2-plane"), a);
    EXPECT_EQ(in.find("absent"), Interner::kInvalid);
}

// ---------------------------------------------------------------------
// Ring-buffer recorder
// ---------------------------------------------------------------------

TEST(Recorder, DisabledRecordingIsANoOp)
{
    Interner in;
    TraceRecorder rec(in, 16);
    std::uint32_t t = in.intern("track");
    EXPECT_EQ(rec.complete(t, t, 0, 10), kNoSpan);
    EXPECT_EQ(rec.beginSpan(t, t, 0), kNoSpan);
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.totalRecorded(), 0u);
    // Span ids can still be minted while disabled (reserved slots).
    EXPECT_NE(rec.nextSpanId(), kNoSpan);
}

TEST(Recorder, RingWrapsKeepingNewestRecords)
{
    Interner in;
    TraceRecorder rec(in);
    rec.setCapacity(8);
    rec.setEnabled(true);
    std::uint32_t t = in.intern("track");

    for (std::uint64_t i = 0; i < 20; ++i)
        rec.complete(t, t, i * 100, i * 100 + 50, kNoSpan, i);

    EXPECT_EQ(rec.size(), 8u);
    EXPECT_EQ(rec.totalRecorded(), 20u);
    EXPECT_EQ(rec.droppedRecords(), 12u);
    EXPECT_EQ(rec.seqOfOldest(), 12u);

    // Held window is records 12..19, oldest first.
    for (std::size_t i = 0; i < rec.size(); ++i)
        EXPECT_EQ(rec.at(i).arg, 12 + i);

    std::uint64_t expect_seq = 12;
    rec.forEach([&](std::uint64_t seq, const TraceRecord &r) {
        EXPECT_EQ(seq, expect_seq);
        EXPECT_EQ(r.arg, expect_seq);
        ++expect_seq;
    });
    EXPECT_EQ(expect_seq, 20u);
}

TEST(Recorder, ClearKeepsSequenceNumbersMonotone)
{
    Interner in;
    TraceRecorder rec(in, 8);
    rec.setEnabled(true);
    std::uint32_t t = in.intern("track");

    for (int i = 0; i < 5; ++i)
        rec.complete(t, t, 0, 1);
    std::uint64_t watermark = rec.nextSeq();
    EXPECT_EQ(watermark, 5u);

    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.nextSeq(), watermark); // clear never rewinds seqs

    rec.complete(t, t, 0, 1);
    EXPECT_EQ(rec.seqOfOldest(), watermark);
    EXPECT_EQ(rec.totalRecorded(), 1u);
}

TEST(Recorder, BeginEndPairBySpanId)
{
    Interner in;
    TraceRecorder rec(in, 16);
    rec.setEnabled(true);
    std::uint32_t t = in.intern("track");

    SpanId s = rec.beginSpan(t, t, 100);
    ASSERT_NE(s, kNoSpan);
    rec.endSpan(s, 400);

    ASSERT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec.at(0).kind, RecKind::Begin);
    EXPECT_EQ(rec.at(0).span, s);
    EXPECT_EQ(rec.at(1).kind, RecKind::End);
    EXPECT_EQ(rec.at(1).span, s);
    EXPECT_EQ(rec.at(1).t0, 400u);
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(Metrics, SnapshotDeltaAndLookup)
{
    MetricsRegistry reg;
    Counter reads("reads");
    std::uint64_t polled = 7;
    Distribution lat("lat");
    lat.sample(10);
    lat.sample(20);

    MetricsGroup g(reg, "dev");
    g.counter("reads", &reads);
    g.value("polled", [&] { return polled; });
    g.distribution("lat_us", &lat);

    reads.inc(3);
    MetricsSnapshot before = reg.snapshot();
    EXPECT_EQ(before.scalar("dev.reads"), 3u);
    EXPECT_EQ(before.scalar("dev.polled"), 7u);
    EXPECT_EQ(before.scalar("dev.absent", 42), 42u);
    ASSERT_NE(before.findDist("dev.lat_us"), nullptr);
    EXPECT_EQ(before.findDist("dev.lat_us")->count, 2u);

    reads.inc(5);
    polled = 9;
    MetricsSnapshot after = reg.snapshot();
    MetricsSnapshot d = MetricsRegistry::delta(after, before);
    EXPECT_EQ(d.scalar("dev.reads"), 5u);
    EXPECT_EQ(d.scalar("dev.polled"), 2u);
}

TEST(Metrics, GroupDeregistersOnDestruction)
{
    MetricsRegistry reg;
    Counter c("c");
    {
        MetricsGroup g(reg, "tmp");
        g.counter("c", &c);
        EXPECT_EQ(reg.size(), 1u);
    }
    EXPECT_EQ(reg.size(), 0u);
}

TEST(Metrics, StaleGroupDoesNotClobberReRegisteredName)
{
    MetricsRegistry reg;
    Counter c1("c1"), c2("c2");
    c1.inc(1);
    c2.inc(2);

    auto older = std::make_unique<MetricsGroup>(reg, "dev");
    older->counter("n", &c1);
    // A newer object re-registers the same hierarchical name (as
    // sequentially-created test fixtures do).
    MetricsGroup newer(reg, "dev");
    newer.counter("n", &c2);
    EXPECT_EQ(reg.snapshot().scalar("dev.n"), 2u);

    older.reset(); // stale token must not remove the newer registration
    EXPECT_EQ(reg.snapshot().scalar("dev.n"), 2u);
}

TEST(Metrics, JsonDumpIsWellFormed)
{
    MetricsRegistry reg;
    Counter c("c");
    c.inc(3);
    Distribution d("d");
    d.sample(1.5);
    MetricsGroup g(reg, "x");
    g.counter("count", &c);
    g.distribution("dist", &d);

    std::ostringstream os;
    reg.writeJson(os);
    std::string text = os.str();
    EXPECT_TRUE(JsonChecker(text).valid()) << text;
    EXPECT_NE(text.find("\"x.count\""), std::string::npos);
    EXPECT_NE(text.find("\"x.dist\""), std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end span lifecycle over a seeded fio run
// ---------------------------------------------------------------------

struct SpanRun
{
    // One record, resolved to strings so runs can be compared without
    // depending on span-id allocation order.
    struct Row
    {
        RecKind kind;
        std::string track, label, parentLabel;
        Tick t0, t1;
        std::uint64_t arg;

        bool
        operator==(const Row &o) const
        {
            return kind == o.kind && track == o.track &&
                   label == o.label && parentLabel == o.parentLabel &&
                   t0 == o.t0 && t1 == o.t1 && arg == o.arg;
        }
    };

    std::vector<TraceRecord> records;
    std::vector<Row> rows;
    std::map<SpanId, TraceRecord> bySpan; //!< Begin/Complete records
    std::map<SpanId, Tick> endOf;         //!< from End records

    const TraceRecord *
    findSpan(const std::string &track, const std::string &label,
             SpanId parent = kNoSpan, bool match_parent = false) const
    {
        const Interner &in = obs::interner();
        for (const auto &[span, rec] : bySpan) {
            if (in.label(rec.track) != track ||
                in.label(rec.label) != label)
                continue;
            if (match_parent && rec.parent != parent)
                continue;
            return &rec;
        }
        return nullptr;
    }
};

/** Fill a small SSD, then trace a seeded random READ run. */
static SpanRun
runTracedFio()
{
    SimContext ctx;
    SpanRun out;
    {
        EventQueue eq(ctx);
        ChannelConfig ccfg;
        ccfg.package = nand::hynixPackage();
        ccfg.package.geometry.pagesPerBlock = 8;
        ccfg.package.geometry.blocksPerPlane = 32;
        ccfg.chips = 4;
        ChannelSystem sys(eq, "ssd", ccfg);
        HwController ctrl(eq, "ctrl", sys, false);
        ftl::FtlConfig fcfg;
        fcfg.blocksPerChip = 16;
        fcfg.overprovision = 0.25;
        ftl::PageFtl ftl(eq, "ftl", ctrl, fcfg);
        host::FioEngine fio(eq, "fio", ftl, {});

        const std::uint64_t extent = ftl.logicalPages() / 2;
        bool filled = false;
        fio.fill(extent, [&] { filled = true; });
        eq.run();
        EXPECT_TRUE(filled);

        ctx.trace.setEnabled(true); // trace only the READ phase

        host::FioConfig io;
        io.pattern = host::FioConfig::Pattern::Random;
        io.queueDepth = 4;
        io.extentPages = extent;
        io.totalIos = 32;
        io.seed = 1234;
        io.dramBase = 1 << 20;
        host::FioEngine reader(eq, "fio", ftl, io);
        bool done = false;
        reader.start([&] { done = true; });
        eq.run();
        EXPECT_TRUE(done);
        EXPECT_EQ(reader.errors(), 0u);
    }

    TraceRecorder &rec = ctx.trace;
    EXPECT_EQ(rec.droppedRecords(), 0u);
    const Interner &in = obs::interner();
    rec.forEach([&](std::uint64_t, const TraceRecord &r) {
        out.records.push_back(r);
        if (r.kind == RecKind::End)
            out.endOf[r.span] = r.t0;
        else
            out.bySpan[r.span] = r;
    });
    for (const TraceRecord &r : out.records) {
        SpanRun::Row row;
        row.kind = r.kind;
        if (r.kind != RecKind::End) {
            row.track = in.label(r.track);
            row.label = in.label(r.label);
            row.arg = r.arg;
        } else {
            row.arg = 0;
        }
        row.t0 = r.t0;
        row.t1 = r.t1;
        auto parent = out.bySpan.find(r.parent);
        if (r.kind != RecKind::End && parent != out.bySpan.end())
            row.parentLabel = in.label(parent->second.label);
        row.t0 = r.t0;
        row.t1 = r.t1;
        out.rows.push_back(row);
    }
    return out;
}

TEST(SpanLifecycle, SeededRunsAreDeterministic)
{
    SpanRun a = runTracedFio();
    SpanRun b = runTracedFio();

    ASSERT_GT(a.records.size(), 100u);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i)
        EXPECT_TRUE(a.rows[i] == b.rows[i]) << "record " << i << " ("
                                            << a.rows[i].track << "/"
                                            << a.rows[i].label << ")";
}

TEST(SpanLifecycle, HostReadReconstructsAsNestedSpans)
{
    SpanRun run = runTracedFio();

    // Walk every host read until one full chain host -> FTL -> op ->
    // bus segment -> LUN busy is found (ISSUE acceptance: at least one
    // read must reconstruct end to end).
    const Interner &in = obs::interner();
    bool reconstructed = false;
    for (const auto &[span, host] : run.bySpan) {
        if (in.label(host.track) != "fio" ||
            in.label(host.label) != "io.read")
            continue;
        auto host_end = run.endOf.find(span);
        if (host_end == run.endOf.end())
            continue;

        const TraceRecord *ftl =
            run.findSpan("ftl", "ftl.read", span, true);
        if (!ftl)
            continue;
        auto ftl_end = run.endOf.find(ftl->span);
        ASSERT_NE(ftl_end, run.endOf.end());

        const TraceRecord *op =
            run.findSpan("ctrl", "op.READ", ftl->span, true);
        if (!op)
            continue;
        auto op_end = run.endOf.find(op->span);
        ASSERT_NE(op_end, run.endOf.end());

        // Bus segments of this op (any label, parent == op span).
        const TraceRecord *seg = nullptr;
        for (const auto &[s, r] : run.bySpan) {
            if (r.kind == RecKind::Complete && r.parent == op->span &&
                in.label(r.track) == "ssd.bus") {
                seg = &r;
                break;
            }
        }
        if (!seg)
            continue;

        // LUN busy period hanging off one of the op's bus segments.
        const TraceRecord *busy = nullptr;
        for (const auto &[s, r] : run.bySpan) {
            if (r.kind != RecKind::Complete ||
                in.label(r.label) != "busy.Read")
                continue;
            auto p = run.bySpan.find(r.parent);
            if (p != run.bySpan.end() &&
                p->second.parent == op->span) {
                busy = &r;
                break;
            }
        }
        if (!busy)
            continue;

        // Timestamps must nest consistently.
        EXPECT_LE(host.t0, ftl->t0);
        EXPECT_LE(ftl->t0, op->t0);
        EXPECT_LE(op->t0, seg->t0);
        EXPECT_LE(seg->t0, seg->t1);
        EXPECT_LE(seg->t1, op_end->second);
        EXPECT_LE(busy->t0, busy->t1);
        EXPECT_LE(busy->t1, op_end->second);
        EXPECT_LE(op_end->second, ftl_end->second);
        EXPECT_LE(ftl_end->second, host_end->second);
        reconstructed = true;
        break;
    }
    EXPECT_TRUE(reconstructed)
        << "no host read reconstructable end to end";
}

TEST(SpanLifecycle, PerfettoExportIsValidJson)
{
    SpanRun run = runTracedFio();

    // Re-record the captured window into a private recorder so the
    // export sees exactly this run.
    Interner &in = obs::interner();
    TraceRecorder rec(in, run.records.size() + 1);
    rec.setEnabled(true);
    for (const TraceRecord &r : run.records)
        rec.push(r);

    std::ostringstream os;
    writePerfettoJson(os, rec);
    std::string text = os.str();

    EXPECT_TRUE(JsonChecker(text).valid()) << text.substr(0, 400);
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"M\""), std::string::npos); // tracks
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos); // spans
    EXPECT_NE(text.find("\"fio\""), std::string::npos);
    EXPECT_NE(text.find("\"io.read\""), std::string::npos);
}

// ---------------------------------------------------------------------
// BusTrace on the shared ring
// ---------------------------------------------------------------------

TEST(BusTraceObs, RepeatLabelsInternOnceAndInstancesAreIsolated)
{
    TraceRecorder ring(obs::interner());
    chan::BusTrace t1(ring, "busA");
    t1.setEnabled(true);
    t1.record(0, 10, 1, "CMD 00h");
    std::size_t interned = obs::interner().size();
    for (int i = 1; i < 50; ++i)
        t1.record(i * 100, i * 100 + 10, 1, "CMD 00h");
    EXPECT_EQ(obs::interner().size(), interned); // no new labels
    EXPECT_EQ(t1.eventCount(), 50u);

    // A second trace created later sees only its own records.
    chan::BusTrace t2(ring, "busB");
    t2.setEnabled(true);
    t2.record(0, 5, 1, "CMD 60h");
    EXPECT_EQ(t2.eventCount(), 1u);
    EXPECT_EQ(t2.events()[0].label, "CMD 60h");
    EXPECT_EQ(t1.eventCount(), 50u);

    // And clear() moves only the caller's watermark.
    t1.clear();
    EXPECT_EQ(t1.eventCount(), 0u);
    EXPECT_EQ(t2.eventCount(), 1u);
}

// ---------------------------------------------------------------------
// Shared command-line flags
// ---------------------------------------------------------------------

TEST(ObsCli, PowerCapTakesOnlyAPositiveDecimal)
{
    auto parseCap = [](const char *value) {
        std::string flag = "--power-cap", val = value;
        char *argv[] = {flag.data(), flag.data(), val.data()};
        obs::cli::Options opts;
        int i = 1;
        EXPECT_TRUE(opts.parse(3, argv, i));
        EXPECT_EQ(i, 2);
        return opts.powerCapMw;
    };
    EXPECT_EQ(parseCap("250"), 250u);
    for (const char *bad : {"-5", "12abc", "0", "", "+7",
                            "18446744073709551616"}) {
        try {
            parseCap(bad);
            ADD_FAILURE() << "accepted --power-cap '" << bad << "'";
        } catch (const SimFatal &e) {
            EXPECT_NE(std::string(e.what()).find("--power-cap"),
                      std::string::npos);
        }
    }
}

} // namespace
