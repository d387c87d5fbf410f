/**
 * @file
 * A miniature SSD, end to end: BABOL channel controller + page-mapped
 * FTL + fio-style host workloads — the §VI-C experiment as a runnable
 * demo. Fills the device, then reports sequential and random READ
 * bandwidth and latency percentiles for a chosen controller flavour.
 *
 *   $ ./examples/ssd_fio [coro|rtos|hw] [--trace-out t.json]
 *                        [--metrics-out m.json] [--audit[=report]]
 *                        [--faults plan.txt]
 *                        [--fleet N [--streams M] [--threads T]]
 *
 * --trace-out writes a Chrome trace_event JSON of the measured READ
 * phases (load it at ui.perfetto.dev); --metrics-out dumps the
 * central metrics registry; --audit arms the online ONFI conformance
 * auditor and reports its findings at exit (non-zero status on any
 * diagnostic); --faults arms the deterministic fault-injection engine
 * with the given plan (see src/fault/fault_plan.hh for the format),
 * enables the recovery machinery (read-retry budget on every flavour),
 * and prints the injection/recovery ledger at exit.
 *
 * --power-out enables the power model and writes the per-rail energy
 * summary JSON at exit; --power-cap MW additionally arms a per-channel
 * rolling-window power-budget governor — when the trailing window
 * exceeds the cap, request admission pauses for a forced idle period
 * (throttle windows are summarized at exit, and each READ line gains a
 * measured nJ/IO figure whenever the power model is on).
 *
 * --fleet N switches to fleet mode: N fully independent mini-SSDs, each
 * running M random-read streams (--streams, default 1) after its fill,
 * spread over T OS threads (--threads, default 1). Every member runs on
 * its own SimContext (metrics registry, trace ring, auditor, power
 * model, fault engine) with a deterministic per-member seed, so results
 * are byte-identical at any T; the per-member report and the fleet
 * aggregate prove it.
 *
 * --crash-at N cuts power after the Nth acknowledged host write of a
 * stamped-pattern workload, remounts a fresh controller stack over the
 * surviving cells (OOB scan), and verifies the crash-consistency
 * contract: every acknowledged write survives, no stale mapping
 * resurrects. --crash-plan FILE runs one such crash/remount cycle per
 * `fault powercut nth=K` line in the plan; --remount adds a
 * clean-shutdown (flush) remount pass; --crash-out FILE appends one
 * deterministic digest line per cycle so CI can cmp reruns.
 * --lifetime-smoke drives a tiny device to its rated erase endurance
 * under a skewed workload with static wear levelling on, and checks
 * the wear spread stays bounded and the device survives the first
 * erase-limit retirement.
 *
 * --rain / --scrub run the media-decay reliability campaign on a
 * 2-channel device: --rain attaches the cross-chip RAIN parity
 * manager, --scrub the background patrol scrubber, and --diefail-at N
 * (or --blockfail-at N) injects a die (block) failure after the Nth
 * acknowledged write of a stamped mixed read/write workload. The
 * campaign then verifies that every acknowledged write reads back
 * intact — XOR-rebuilt where its die died — and exits with the
 * distinct status 4 on any acknowledged-data loss.
 * --reliability-out FILE appends one deterministic digest line per run
 * so CI can cmp reruns.
 * Both campaigns run on the shared harness in src/campaign/: stamped
 * (lpn, gen) payloads, the acked <= recovered <= issued ledger and its
 * read-back check, and the FNV-1a digest.
 *
 * --qpairs N switches to the NVMe-style queued front end: a
 * multi-channel device reached through N submission/completion queue
 * pairs (DRAM rings + doorbells + interrupt coalescing) instead of
 * direct FTL calls. In this mode:
 *
 *   --replay FILE   replay a Flashmon-style block trace (time_us R|W
 *                   lba sectors) paced against simulated time
 *   --tenants N     run N simulated clients sharing the queue pairs,
 *                   each with a token-bucket rate class and its own
 *                   latency SLO distribution
 *   --slo-out FILE  write the per-tenant p50/p99/p999 SLO report as
 *                   JSON (byte-identical across reruns)
 *
 * --threads applies to fleet mode only: every other mode simulates one
 * device on one event queue.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "campaign/rig.hh"
#include "ftl/ftl.hh"
#include "host/fio.hh"
#include "host/nvme/client.hh"
#include "host/replay/replay.hh"
#include "obs/cli.hh"
#include "obs/perfetto.hh"
#include "obs/sim_context.hh"
#include "reliability/rain.hh"
#include "reliability/scrub.hh"
#include "sim/fleet.hh"
#include "sim/parse.hh"
#include "ssd/ssd.hh"

using namespace babol;
using namespace babol::core;

namespace {

struct StreamResult
{
    double mbps = 0;
    double iops = 0;
    double p99us = 0;
};

struct MemberResult
{
    double fillMBps = 0;
    std::vector<StreamResult> streams;
    std::uint64_t injected = 0;
};

/** The demo's controller; a fault campaign arms a read-retry budget. */
std::unique_ptr<ChannelController>
demoController(EventQueue &eq, const std::string &flavor, ChannelSystem &sys,
               bool campaign)
{
    SoftControllerConfig soft;
    soft.maxReadRetries = campaign ? 4 : 0;
    return ssd::makeController(eq, flavor, "ctrl", sys, soft);
}

/** One fleet member, built and run entirely on the member's own
 *  context. */
MemberResult
runMember(SimContext &ctx, const std::string &flavor,
          const fault::FaultPlan *plan, std::uint64_t seed,
          std::uint32_t streams)
{
    if (plan)
        ctx.faults.arm(*plan);

    EventQueue eq(ctx);
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.chips = 8;
    cfg.rateMT = 200;
    cfg.seed = seed;
    ChannelSystem sys(eq, "ssd", cfg);
    auto ctrl = demoController(eq, flavor, sys, plan != nullptr);

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 4;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(eq, "ftl", *ctrl, fcfg);

    MemberResult res;
    const std::uint64_t extent = ftl.logicalPages() / 2;
    host::FioConfig fill_cfg;
    fill_cfg.queueDepth = 16;
    host::FioEngine filler(eq, "fill", ftl, fill_cfg);
    bool filled = false;
    filler.fill(extent, [&] { filled = true; });
    eq.run();
    if (!filled)
        fatal("fleet member fill did not complete");
    res.fillMBps = filler.bandwidthMBps();

    for (std::uint32_t s = 0; s < streams; ++s) {
        host::FioConfig io;
        io.pattern = host::FioConfig::Pattern::Random;
        io.queueDepth = 32;
        io.extentPages = extent;
        io.totalIos = 400;
        io.dramBase = 16 << 20;
        io.seed = sim::FleetEngine::memberSeed(seed, s + 1);
        host::FioEngine engine(eq, "fio", ftl, io);
        bool done = false;
        engine.start([&] { done = true; });
        eq.run();
        if (!done || engine.errors())
            fatal("fleet member fio stream failed");
        res.streams.push_back({engine.bandwidthMBps(), engine.iops(),
                               engine.latencyUs().percentile(99)});
    }
    res.injected = ctx.faults.injectedTotal();
    return res;
}

int
runFleet(const std::string &flavor, const fault::FaultPlan *plan,
         std::size_t fleet, std::uint32_t streams, std::uint32_t threads)
{
    std::printf("fleet: %zu mini-SSDs x %u stream(s) on %u thread(s), "
                "%s controller\n",
                fleet, streams, threads, flavor.c_str());

    // One context per member (registry, trace ring, span namespace,
    // auditor, power model, fault engine), built here in member order.
    const SimContext &parent = SimContext::processDefault();
    std::vector<MemberResult> results(fleet);
    std::vector<std::unique_ptr<SimContext>> ctxs(fleet);
    for (std::size_t m = 0; m < fleet; ++m) {
        ctxs[m] = std::make_unique<SimContext>(
            parent, static_cast<std::uint32_t>(m));
    }

    sim::FleetEngine::run(fleet, threads, [&](std::size_t m) {
        results[m] = runMember(*ctxs[m], flavor, plan,
                               sim::FleetEngine::memberSeed(1, m), streams);
    });

    double sumIops = 0, sumMBps = 0, worstP99 = 0;
    std::uint64_t injected = 0;
    std::size_t bad = 0;
    for (std::size_t m = 0; m < fleet; ++m) {
        const MemberResult &r = results[m];
        for (const StreamResult &s : r.streams) {
            std::printf("  member %2zu: %7.1f MB/s  %8.0f IOPS  "
                        "p99 = %.0f us\n", m, s.mbps, s.iops, s.p99us);
            sumIops += s.iops;
            sumMBps += s.mbps;
            worstP99 = std::max(worstP99, s.p99us);
        }
        injected += r.injected;
        bad += ctxs[m]->audit.unsuppressedCount();
    }
    std::printf("fleet aggregate: %.1f MB/s, %.0f IOPS, worst p99 %.0f us",
                sumMBps, sumIops, worstP99);
    if (plan)
        std::printf(", %llu fault(s) injected",
                    static_cast<unsigned long long>(injected));
    std::printf("\n");

    if (bad) {
        std::printf("fleet audit: %zu diagnostic(s)\n", bad);
        return 1;
    }
    return 0;
}

/**
 * The NVMe-queued front-end mode: a 2-channel device reached through
 * queue pairs, optionally replaying a trace and/or serving N
 * rate-classed tenants.
 */
int
runNvme(const std::string &flavor, std::uint32_t qpairs,
        const std::string &replay_path, std::uint32_t tenants,
        const std::string &slo_out, obs::cli::Options &obs_opts)
{
    ssd::SsdConfig cfg;
    cfg.channels = 2;
    cfg.flavor = flavor == "hw" ? "hw-async" : flavor;
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.chips = 4;
    cfg.channel.rateMT = 200;
    cfg.channel.seed = 5;
    cfg.cpuMhz = 1000;
    EventQueue eq;
    ssd::Ssd dev(eq, "ssd", cfg);

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 4;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(eq, "ftl", dev, fcfg);

    host::HicConfig hcfg;
    hcfg.maxInflight = 64;
    host::Hic hic(eq, "hic", ftl, hcfg);

    host::nvme::NvmeConfig ncfg;
    ncfg.queuePairs = qpairs;
    ncfg.maxInflight = 64;
    ncfg.dramBase = 1 << 20;
    host::nvme::NvmeFrontEnd fe(eq, "nvme", hic, ncfg);

    // One device runs on one event queue, hence on one thread.
    std::printf("NVMe front end: %u queue pair(s) over a 2-channel x "
                "4-way %s device, 1 thread(s)\n",
                qpairs, cfg.flavor.c_str());

    // Precondition: fill half the logical space (direct FTL path; the
    // queued front end is for the measured phases).
    const std::uint64_t extent = ftl.logicalPages() / 2;
    host::FioConfig fill_cfg;
    fill_cfg.queueDepth = 16;
    host::FioEngine filler(eq, "fill", ftl, fill_cfg);
    bool filled = false;
    filler.fill(extent, [&] { filled = true; });
    eq.run();
    if (!filled)
        fatal("fill did not complete");
    if (eq.context().trace.enabled())
        eq.context().trace.clear();

    // --- Phase 1: trace replay ---
    if (!replay_path.empty()) {
        auto ops = host::replay::loadTraceFile(replay_path);
        const std::size_t records = ops.size();
        host::replay::ReplayConfig rcfg;
        rcfg.dramBase = 4 << 20;
        host::replay::ReplayEngine rep(eq, "replay", fe, std::move(ops),
                                       rcfg);
        bool done = false;
        rep.start([&] { done = true; });
        eq.run();
        if (!done || rep.errors())
            fatal("trace replay failed (%llu errors)",
                  static_cast<unsigned long long>(rep.errors()));
        std::printf("replayed %zu record(s) from %s: %.0f IOPS, "
                    "%llu late, lat p50/p99/p999 = %.0f/%.0f/%.0f us\n",
                    records, replay_path.c_str(), rep.iops(),
                    static_cast<unsigned long long>(rep.lateIos()),
                    rep.latencyUs().histPercentile(50),
                    rep.latencyUs().histPercentile(99),
                    rep.latencyUs().histPercentile(99.9));
    }

    // --- Phase 2: multi-tenant QoS ---
    if (tenants > 0) {
        // The SLO report uses a private registry so it holds exactly
        // the per-tenant rows, name-sorted by the zero-padded prefix.
        obs::MetricsRegistry sloReg;
        std::vector<std::unique_ptr<host::nvme::TenantClient>> clients;
        clients.reserve(tenants);
        std::uint32_t done_count = 0;
        for (std::uint32_t t = 0; t < tenants; ++t) {
            host::nvme::TenantConfig tcfg;
            tcfg.tenant = t;
            tcfg.seed = sim::FleetEngine::memberSeed(42, t);
            tcfg.queueDepth = 2;
            tcfg.totalIos = 20;
            // Three deterministic rate classes: unthrottled, 4k IOPS,
            // 1k IOPS — the QoS contrast the SLO report shows.
            tcfg.ratePerSec = (t % 3 == 0) ? 0 : (t % 3 == 1) ? 4000 : 1000;
            tcfg.burst = 4;
            tcfg.dramBase =
                (16 << 20) +
                std::uint64_t(t) * tcfg.queueDepth * hic.sectorBytes();
            clients.push_back(std::make_unique<host::nvme::TenantClient>(
                eq, strfmt("tenant%04u", t), fe, sloReg, tcfg));
        }
        for (auto &c : clients)
            c->start([&] { ++done_count; });
        eq.run();
        if (done_count != tenants)
            fatal("only %u of %u tenants finished", done_count, tenants);

        std::uint64_t total_ios = 0, total_errors = 0, throttled = 0;
        double worst_p99 = 0, worst_p999 = 0;
        for (const auto &c : clients) {
            total_ios += c->completed();
            total_errors += c->errors();
            throttled += c->throttledWaits();
            worst_p99 = std::max(worst_p99,
                                 c->latencyUs().histPercentile(99));
            worst_p999 = std::max(worst_p999,
                                  c->latencyUs().histPercentile(99.9));
        }
        if (total_errors)
            fatal("tenant I/O errors: %llu",
                  static_cast<unsigned long long>(total_errors));
        std::printf("%u tenant(s): %llu IOs, %llu throttle wait(s), "
                    "worst p99/p999 = %.0f/%.0f us\n",
                    tenants, static_cast<unsigned long long>(total_ios),
                    static_cast<unsigned long long>(throttled),
                    worst_p99, worst_p999);

        if (!slo_out.empty()) {
            std::ofstream out(slo_out);
            if (!out)
                fatal("cannot write %s", slo_out.c_str());
            sloReg.writeJson(out);
            std::printf("per-tenant SLO report -> %s\n", slo_out.c_str());
        }
    }

    std::printf("front end: %llu submitted, %llu completed, %llu "
                "interrupt(s) (max %llu CQEs coalesced), %llu SQ-full "
                "reject(s), %llu HIC stall(s)\n",
                static_cast<unsigned long long>(fe.submitted()),
                static_cast<unsigned long long>(fe.completed()),
                static_cast<unsigned long long>(fe.interrupts()),
                static_cast<unsigned long long>(fe.maxCoalesced()),
                static_cast<unsigned long long>(fe.sqFullRejects()),
                static_cast<unsigned long long>(fe.hicStalls()));

    obs_opts.captureMetrics(eq);
    return obs_opts.finalize();
}

// ---------------------------------------------------------------------
// Crash / remount campaign
// ---------------------------------------------------------------------

/** The crash campaign's device: four rig chips with the write buffer
 *  and static wear levelling on, so the campaign exercises both. */
std::unique_ptr<campaign::Rig>
crashRig(const std::string &flavor)
{
    ftl::FtlConfig cfg = campaign::Rig::smallFtl();
    cfg.writeBufferPages = 4;
    cfg.writeBufferFlushUs = 200;
    cfg.wearSpreadThreshold = 8;
    return std::make_unique<campaign::Rig>(4, cfg, flavor);
}

/**
 * The campaign proper: for each crash point K, run the stamped
 * workload until the Kth acknowledgement, cut power (tear in-flight
 * programs, drop DRAM state), transplant the surviving cells into a
 * fresh rig, remount from OOB, and hold every logical page against the
 * ledger. @p clean_remount adds a flush + remount pass; it drains
 * every write first, so acked = issued and the check is exact.
 * Violations land in the conformance auditor under Check::Recovery.
 */
int
runCrashCampaign(const std::string &flavor,
                 const std::vector<std::uint64_t> &points,
                 bool clean_remount, const std::string &crash_out,
                 std::uint64_t seed, obs::cli::Options &obs_opts)
{
    std::uint64_t max_point = 0;
    for (std::uint64_t p : points)
        max_point = std::max(max_point, p);
    const std::uint64_t total_writes =
        points.empty() ? 256 : max_point + 64;

    std::ofstream out;
    if (!crash_out.empty()) {
        out.open(crash_out, std::ios::app);
        if (!out)
            fatal("cannot write %s", crash_out.c_str());
    }

    SimContext &ctx = SimContext::processDefault();
    auto &pm = ctx.power;
    std::uint64_t violations = 0;

    auto one_cycle = [&](std::uint64_t crash_at) {
        auto wa = crashRig(flavor);
        campaign::Ledger led(wa->ftl.logicalPages() / 2);
        campaign::StampedWorkload wl(wa->eq, wa->ftl, led, total_writes,
                                     seed);
        // The loop stops the moment the crash_at-th ack lands: in-flight
        // and buffered writes stay in flight, as in a power cut mid-burst.
        wl.onAck = [crash_at](std::uint64_t acked) {
            return acked == crash_at;
        };
        wl.run();

        Tick cut_at = 0;
        if (crash_at != 0) {
            if (!wl.cut())
                fatal("crash point %llu beyond workload (only %llu "
                      "acked)",
                      static_cast<unsigned long long>(crash_at),
                      static_cast<unsigned long long>(led.acked));
            cut_at = wa->eq.now();
            ctx.faults.notePowerCut("ssd", cut_at);
            wa->powerCut();
        } else {
            // Clean shutdown: drain the write buffer first.
            bool flushed = false;
            wa->ftl.flush([&](bool) { flushed = true; });
            wa->eq.run();
            if (!flushed)
                fatal("flush did not complete");
            cut_at = wa->eq.now();
        }

        // The cells survive the cut; everything else is rebuilt fresh.
        auto wb = crashRig(flavor);
        wa->transplantInto(*wb);
        wa.reset();
        // Drop the old rig's records: its torn spans would otherwise
        // trip the auditor's conservation pass, and a power cut tearing
        // them open is exactly the expected outcome here.
        if (ctx.trace.enabled())
            ctx.trace.clear();

        const std::uint64_t e0 =
            pm.enabled() ? pm.grandTotalFjAt(wb->eq.now()) : 0;
        if (!wb->mount())
            fatal("remount failed");
        const Tick mount_ticks = wb->eq.now();
        const std::uint64_t mount_fj =
            pm.enabled() ? pm.grandTotalFjAt(wb->eq.now()) - e0 : 0;

        const campaign::ReadBack rb =
            campaign::readBack(wb->eq, wb->ftl, led);
        for (const std::string &v : rb.violations) {
            ctx.audit.report(obs::audit::Check::Recovery,
                             "recovery.conservation", "ssd.ftl",
                             wb->eq.now(), v);
            std::printf("RECOVERY VIOLATION: %s\n", v.c_str());
        }
        violations += rb.lost + rb.stale + rb.corrupt;

        // The byte-determinism witness: (lpn, mapped, gen) per page.
        campaign::Digest digest;
        for (std::uint64_t lpn = 0; lpn < led.extent(); ++lpn) {
            digest.fold(lpn);
            digest.fold(wb->ftl.isMapped(lpn) ? 1 : 0);
            digest.fold(rb.gens[lpn]);
        }

        std::string line = strfmt(
            "%s=%llu acked=%llu issued=%llu cut@%.1fus | mount %llu "
            "pages (%llu torn) in %.1f us | mapped=%llu digest=%016llx "
            "| lost=%llu stale=%llu corrupt=%llu",
            crash_at != 0 ? "crash-at" : "clean-remount",
            static_cast<unsigned long long>(crash_at),
            static_cast<unsigned long long>(led.acked),
            static_cast<unsigned long long>(led.issued),
            ticks::toUs(cut_at),
            static_cast<unsigned long long>(
                wb->ftl.mountPagesScanned()),
            static_cast<unsigned long long>(wb->ftl.mountTornPages()),
            ticks::toUs(mount_ticks),
            static_cast<unsigned long long>(rb.mapped),
            static_cast<unsigned long long>(digest.value()),
            static_cast<unsigned long long>(rb.lost),
            static_cast<unsigned long long>(rb.stale),
            static_cast<unsigned long long>(rb.corrupt));
        if (pm.enabled())
            line += strfmt(" | mount %.2f uJ",
                           static_cast<double>(mount_fj) / 1e9);
        std::printf("%s\n", line.c_str());
        if (out)
            out << line << "\n";
        obs_opts.captureMetrics(wb->eq);
    };

    for (std::uint64_t p : points)
        one_cycle(p);
    if (clean_remount || points.empty())
        one_cycle(0);

    if (ctx.faults.armed())
        std::printf("\n%s\n", ctx.faults.summary().c_str());

    int status = obs_opts.finalize();
    if (violations) {
        std::printf("crash campaign: %llu recovery violation(s)\n",
                    static_cast<unsigned long long>(violations));
        return 1;
    }
    std::printf("crash campaign: clean — every acknowledged write "
                "survived, nothing stale resurrected\n");
    return status;
}

/**
 * Wear-bounded lifetime smoke: a tiny device (1 chip, 4 blocks of 4
 * pages) written with a hot/cold skew until the first block reaches
 * its rated erase endurance and is retired. Static wear levelling must
 * keep the spread bounded the whole way, and the device must keep
 * serving writes past the retirement.
 */
int
runLifetimeSmoke(const std::string &flavor)
{
    EventQueue eq;
    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.package.geometry.pagesPerBlock = 4;
    cfg.package.geometry.blocksPerPlane = 32;
    cfg.chips = 1;
    cfg.rateMT = 200;
    ChannelSystem sys(eq, "ssd", cfg);
    auto ctrl = demoController(eq, flavor, sys, true);

    // Generous overprovisioning: with only 32 physical pages, GC needs
    // real headroom to stay ahead of an 8-deep write stream.
    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 8;
    fcfg.overprovision = 0.5;
    fcfg.writeBufferPages = 0; // every write must reach the cells
    fcfg.wearSpreadThreshold = 4;
    ftl::PageFtl ftl(eq, "ftl", *ctrl, fcfg);

    const std::uint64_t extent = ftl.logicalPages();
    const std::uint32_t page_bytes = ftl.pageBytes();
    constexpr std::uint64_t kCap = 400000;
    Rng rng(7);
    std::uint64_t issued = 0, acked = 0, failed = 0;
    bool draining = false;

    std::function<void(std::uint32_t)> issue = [&](std::uint32_t slot) {
        if (draining || issued >= kCap)
            return;
        if (ftl.blocksRetired() > 0) {
            draining = true;
            return;
        }
        // 80% of writes hammer a quarter of the space: the hot/cold
        // split static wear levelling exists for.
        const std::uint64_t hot = std::max<std::uint64_t>(1, extent / 4);
        const std::uint64_t lpn = rng.chance(0.8)
                                      ? rng.uniform(0, hot - 1)
                                      : rng.uniform(0, extent - 1);
        ++issued;
        ftl.writePage(lpn,
                      campaign::kHostBase + std::uint64_t(slot) * page_bytes,
                      [&, slot](bool ok) {
                          ok ? ++acked : ++failed;
                          issue(slot);
                      });
    };
    for (std::uint32_t q = 0; q < campaign::StampedWorkload::kQueueDepth; ++q)
        issue(q);
    eq.run();

    if (acked + failed < issued) {
        std::printf("lifetime smoke: FTL stalled with %llu write(s) "
                    "in flight (%llu issued, %llu acked)\n",
                    static_cast<unsigned long long>(issued - acked -
                                                    failed),
                    static_cast<unsigned long long>(issued),
                    static_cast<unsigned long long>(acked));
        return 1;
    }

    std::uint32_t spread = ftl.wearSpread(0);
    std::printf("lifetime smoke (%s): %llu writes (%llu acked, %llu "
                "failed), %llu erases, max PE %u, wear spread %u "
                "(threshold %u), %llu WL run(s) moving %llu page(s), "
                "%llu block(s) retired\n",
                flavor.c_str(),
                static_cast<unsigned long long>(issued),
                static_cast<unsigned long long>(acked),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(ftl.erasesIssued()),
                ftl.maxEraseCount(0), spread, fcfg.wearSpreadThreshold,
                static_cast<unsigned long long>(ftl.wearLevelRuns()),
                static_cast<unsigned long long>(ftl.wearLevelPageMoves()),
                static_cast<unsigned long long>(ftl.blocksRetired()));

    if (ftl.blocksRetired() == 0) {
        std::printf("lifetime smoke: cap hit before the erase limit\n");
        return 1;
    }
    if (failed) {
        std::printf("lifetime smoke: %llu write(s) failed\n",
                    static_cast<unsigned long long>(failed));
        return 1;
    }
    // The spread may overshoot while a migration is mid-flight, but
    // never unboundedly: WL holds it near the threshold.
    if (spread > fcfg.wearSpreadThreshold * 2) {
        std::printf("lifetime smoke: wear spread %u exceeds bound %u\n",
                    spread, fcfg.wearSpreadThreshold * 2);
        return 1;
    }

    // The device keeps working past the first retirement.
    std::uint64_t extra_ok = 0;
    for (std::uint64_t i = 0; i < 32; ++i) {
        ftl.writePage(i % extent, campaign::kHostBase, [&](bool ok) {
            if (ok)
                ++extra_ok;
        });
        eq.run();
    }
    if (extra_ok != 32) {
        std::printf("lifetime smoke: device died after retirement "
                    "(%llu/32 writes ok)\n",
                    static_cast<unsigned long long>(extra_ok));
        return 1;
    }
    std::printf("lifetime smoke: survived the erase limit, wear spread "
                "bounded\n");
    return 0;
}

// ---------------------------------------------------------------------
// Media-decay reliability campaign (RAIN + patrol scrub + die failure)
// ---------------------------------------------------------------------

/** Exit status for acknowledged-data loss: distinct from the generic
 *  audit/metric failures (1) so CI can tell them apart. */
constexpr int kExitDataLoss = 4;

/**
 * The reliability campaign: a 2x2 device runs a stamped mixed
 * read/write workload with the RAIN manager and/or patrol scrubber
 * attached; --diefail-at N kills a whole die (and --blockfail-at N a
 * block) after the Nth acknowledged write, mid-traffic. The campaign
 * then waits out the background rebuild sweep and walks the ledger:
 * every acknowledged generation must read back byte-intact, served
 * from the shadow map or XOR-rebuilt where its physical copy died.
 */
int
runReliability(const std::string &flavor, bool rain_on, bool scrub_on,
               std::uint64_t diefail_at, std::uint64_t blockfail_at,
               const std::string &rel_out, obs::cli::Options &obs_opts)
{
    ssd::SsdConfig cfg;
    cfg.channels = 2;
    cfg.flavor = flavor == "hw" ? "hw-async" : flavor;
    cfg.channel.package = nand::hynixPackage();
    cfg.channel.package.geometry.pagesPerBlock = 8;
    cfg.channel.package.geometry.blocksPerPlane = 32;
    cfg.channel.chips = 2;
    cfg.channel.rateMT = 200;
    cfg.channel.seed = 11;
    cfg.maxReadRetries = 4;
    EventQueue eq;
    ssd::Ssd dev(eq, "ssd", cfg);
    fault::FaultEngine &faults = eq.context().faults;

    // The engine must be armed (even with an empty plan) for the
    // harness failDie/failBlock calls and the media-decay hooks.
    fault::FaultPlan plan;
    plan.seed = 77;
    faults.arm(plan);

    // Sized so the device stays writable after losing a whole die:
    // half the logical space in use + one parity page per stripe must
    // still fit the surviving 3/4 of the cells with GC headroom.
    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 16;
    fcfg.overprovision = 0.25;
    fcfg.reliabilityScratchPages = 8;
    ftl::PageFtl ftl(eq, "ftl", dev, fcfg);

    std::unique_ptr<reliability::RainManager> rain;
    if (rain_on)
        rain = std::make_unique<reliability::RainManager>(eq, "rain", ftl);
    std::unique_ptr<reliability::PatrolScrubber> scrub;
    if (scrub_on) {
        reliability::ScrubConfig scfg;
        scfg.intervalUs = 50;
        scrub = std::make_unique<reliability::PatrolScrubber>(
            eq, "scrub", ftl, scfg);
        scrub->start();
    }

    const std::uint32_t nchips = dev.backendChipCount();
    std::printf("reliability campaign (%s): %u chips, rain=%s scrub=%s",
                cfg.flavor.c_str(), nchips, rain_on ? "on" : "off",
                scrub_on ? "on" : "off");
    if (diefail_at)
        std::printf(" diefail@%llu",
                    static_cast<unsigned long long>(diefail_at));
    if (blockfail_at)
        std::printf(" blockfail@%llu",
                    static_cast<unsigned long long>(blockfail_at));
    std::printf(", 1 thread(s)\n");

    // --- Phase 1: stamped mixed workload, fault injected mid-flight ---
    // Every third op re-reads an already-acknowledged page and checks
    // its stamp: acked data must stay readable throughout, including
    // while a die is down and rebuilds are in flight.
    const std::uint64_t total_ops =
        std::max<std::uint64_t>(400, std::max(diefail_at, blockfail_at) +
                                         128);
    campaign::Ledger led(ftl.logicalPages() / 2);
    campaign::StampedWorkload wl(eq, ftl, led, total_ops, plan.seed);
    wl.readEvery = 3;
    const std::uint32_t kill_chip = 1; // ssd.ch0.pkg1
    const std::uint32_t blockfail_chip = nchips - 1;
    bool die_killed = false;
    wl.onAck = [&](std::uint64_t acked) {
        if (acked == diefail_at) {
            die_killed = true;
            faults.failDie(dev.backendChipName(kill_chip), eq.now());
            ftl.markChipDead(kill_chip);
        }
        if (acked == blockfail_at)
            faults.failBlock(dev.backendChipName(blockfail_chip), 1, 1,
                             eq.now());
        return false;
    };
    if (scrub)
        wl.onDrain = [&] { scrub->stop(); }; // the patrol ticks forever
    wl.run(); // returns once the rebuild sweep drains too

    if (wl.completed() != wl.ops())
        fatal("reliability workload stalled: %llu of %llu ops done",
              static_cast<unsigned long long>(wl.completed()),
              static_cast<unsigned long long>(wl.ops()));

    std::printf("workload: %llu ops (%llu writes acked, %llu reads: "
                "%llu failed, %llu corrupt)\n",
                static_cast<unsigned long long>(wl.ops()),
                static_cast<unsigned long long>(led.acked),
                static_cast<unsigned long long>(wl.reads()),
                static_cast<unsigned long long>(wl.readFailures()),
                static_cast<unsigned long long>(wl.readCorrupt()));
    if (scrub)
        std::printf("scrub: %llu patrol reads (%llu sweeps), %llu near "
                    "misses, %llu disturb trips, %llu refreshes, %llu "
                    "yields, %llu forced slots\n",
                    static_cast<unsigned long long>(scrub->patrolReads()),
                    static_cast<unsigned long long>(scrub->sweeps()),
                    static_cast<unsigned long long>(scrub->nearMisses()),
                    static_cast<unsigned long long>(
                        scrub->disturbTrips()),
                    static_cast<unsigned long long>(scrub->refreshes()),
                    static_cast<unsigned long long>(scrub->yields()),
                    static_cast<unsigned long long>(
                        scrub->forcedSlots()));
    if (rain)
        std::printf("rain: %llu stripes sealed (%llu parity writes), "
                    "%llu released, %llu holes patched, rebuild %llu/%llu "
                    "(%llu ok, %llu failed)\n",
                    static_cast<unsigned long long>(
                        rain->stripesSealed()),
                    static_cast<unsigned long long>(rain->parityWrites()),
                    static_cast<unsigned long long>(
                        rain->stripesReleased()),
                    static_cast<unsigned long long>(rain->holesPatched()),
                    static_cast<unsigned long long>(rain->rebuildDone()),
                    static_cast<unsigned long long>(rain->rebuildTotal()),
                    static_cast<unsigned long long>(rain->rebuildsOk()),
                    static_cast<unsigned long long>(
                        rain->rebuildsFailed()));

    // --- Phase 2: full read-back verification against the ledger ---
    const campaign::ReadBack rb = campaign::readBack(eq, ftl, led);
    for (const std::string &v : rb.violations)
        std::printf("DATA LOSS: %s\n", v.c_str());
    const std::uint64_t lost = rb.lost;
    const std::uint64_t corrupt = rb.stale + rb.corrupt;
    const std::uint64_t host_loss = wl.readFailures() + wl.readCorrupt();
    campaign::Digest digest;
    for (std::uint64_t gen : rb.gens)
        digest.fold(gen);
    digest.fold(led.acked);
    digest.fold(host_loss);
    digest.fold(lost + corrupt);

    std::string line = strfmt(
        "reliability %s rain=%d scrub=%d diefail@%llu blockfail@%llu | "
        "acked=%llu verified=%llu lost=%llu corrupt=%llu inflight-loss="
        "%llu data-loss-metric=%llu digest=%016llx",
        cfg.flavor.c_str(), rain_on ? 1 : 0, scrub_on ? 1 : 0,
        static_cast<unsigned long long>(diefail_at),
        static_cast<unsigned long long>(blockfail_at),
        static_cast<unsigned long long>(led.acked),
        static_cast<unsigned long long>(rb.verified),
        static_cast<unsigned long long>(lost),
        static_cast<unsigned long long>(corrupt),
        static_cast<unsigned long long>(host_loss),
        static_cast<unsigned long long>(ftl.dataLoss()),
        static_cast<unsigned long long>(digest.value()));
    std::printf("%s\n", line.c_str());
    if (!rel_out.empty()) {
        std::ofstream out(rel_out, std::ios::app);
        if (!out)
            fatal("cannot write %s", rel_out.c_str());
        out << line << "\n";
    }

    std::printf("\n%s\n", faults.summary().c_str());
    obs_opts.captureMetrics(eq);
    int status = obs_opts.finalize();

    if (lost || corrupt || host_loss || ftl.dataLoss()) {
        std::printf("reliability campaign: ACKNOWLEDGED DATA LOST "
                    "(%llu unreadable, %llu corrupt, %llu in-flight, "
                    "reliability.data-loss=%llu)\n",
                    static_cast<unsigned long long>(lost),
                    static_cast<unsigned long long>(corrupt),
                    static_cast<unsigned long long>(host_loss),
                    static_cast<unsigned long long>(ftl.dataLoss()));
        return kExitDataLoss;
    }
    std::printf("reliability campaign: clean — every acknowledged write "
                "read back intact%s\n",
                die_killed ? " across a die failure" : "");
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string flavor = "coro";
    std::string fault_plan_path;
    std::string replay_path;
    std::string slo_out;
    std::string crash_plan_path;
    std::string crash_out;
    std::vector<std::uint64_t> crash_points;
    bool clean_remount = false;
    bool lifetime_smoke = false;
    bool rain_on = false;
    bool scrub_on = false;
    std::uint64_t diefail_at = 0;
    std::uint64_t blockfail_at = 0;
    std::string rel_out;
    std::size_t fleet = 0;
    std::uint32_t streams = 1;
    std::uint32_t threads = 1;
    std::uint32_t qpairs = 0;
    std::uint32_t tenants = 0;
    obs::cli::Options obs_opts;
    constexpr std::uint64_t kU32 = 0xFFFFFFFFu;
    for (int i = 1; i < argc; ++i) {
        if (obs_opts.parse(argc, argv, i))
            continue;
        if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
            fault_plan_path = argv[++i];
            continue;
        }
        if (std::strncmp(argv[i], "--faults=", 9) == 0) {
            fault_plan_path = argv[i] + 9;
            continue;
        }
        if (std::strcmp(argv[i], "--fleet") == 0 && i + 1 < argc) {
            fleet = parseCountFlag("--fleet", argv[++i]);
            continue;
        }
        if (std::strcmp(argv[i], "--streams") == 0 && i + 1 < argc) {
            streams = parseCountFlag("--streams", argv[++i], kU32);
            continue;
        }
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = parseCountFlag("--threads", argv[++i], kU32);
            continue;
        }
        if (std::strcmp(argv[i], "--qpairs") == 0 && i + 1 < argc) {
            qpairs = parseCountFlag("--qpairs", argv[++i], kU32);
            continue;
        }
        if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
            replay_path = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
            tenants = parseCountFlag("--tenants", argv[++i], kU32);
            continue;
        }
        if (std::strcmp(argv[i], "--slo-out") == 0 && i + 1 < argc) {
            slo_out = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--crash-at") == 0 && i + 1 < argc) {
            crash_points.push_back(parseCountFlag("--crash-at", argv[++i]));
            continue;
        }
        if (std::strcmp(argv[i], "--crash-plan") == 0 && i + 1 < argc) {
            crash_plan_path = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--crash-out") == 0 && i + 1 < argc) {
            crash_out = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--remount") == 0) {
            clean_remount = true;
            continue;
        }
        if (std::strcmp(argv[i], "--lifetime-smoke") == 0) {
            lifetime_smoke = true;
            continue;
        }
        if (std::strcmp(argv[i], "--rain") == 0) {
            rain_on = true;
            continue;
        }
        if (std::strcmp(argv[i], "--scrub") == 0) {
            scrub_on = true;
            continue;
        }
        if (std::strcmp(argv[i], "--diefail-at") == 0 && i + 1 < argc) {
            diefail_at = parseCountFlag("--diefail-at", argv[++i]);
            continue;
        }
        if (std::strcmp(argv[i], "--blockfail-at") == 0 && i + 1 < argc) {
            blockfail_at = parseCountFlag("--blockfail-at", argv[++i]);
            continue;
        }
        if (std::strcmp(argv[i], "--reliability-out") == 0 &&
            i + 1 < argc) {
            rel_out = argv[++i];
            continue;
        }
        if (argv[i][0] != '-')
            flavor = argv[i];
        else
            fatal("usage: ssd_fio [coro|rtos|hw] [--faults plan.txt] "
                  "[--fleet N [--streams M] [--threads T]] "
                  "[--crash-at N] [--crash-plan FILE] [--remount] "
                  "[--crash-out FILE] [--lifetime-smoke] "
                  "[--rain] [--scrub] [--diefail-at N] "
                  "[--blockfail-at N] [--reliability-out FILE] "
                  "[--qpairs N [--replay FILE] [--tenants N] "
                  "[--slo-out FILE]] %s",
                  obs::cli::Options::usage());
    }
    obs_opts.applyStartup();

    if ((!replay_path.empty() || tenants > 0 || !slo_out.empty()) &&
        qpairs == 0)
        fatal("--replay/--tenants/--slo-out need the queued front end: "
              "pass --qpairs N");
    if (threads != 1 && fleet == 0)
        fatal("--threads applies to fleet mode only: pass --fleet N");
    if (qpairs > 0) {
        if (replay_path.empty() && tenants == 0)
            tenants = 8; // a front-end demo needs traffic
        return runNvme(flavor, qpairs, replay_path, tenants, slo_out,
                       obs_opts);
    }

    if (lifetime_smoke)
        return runLifetimeSmoke(flavor);

    if (rain_on || scrub_on || diefail_at || blockfail_at)
        return runReliability(flavor, rain_on, scrub_on, diefail_at,
                              blockfail_at, rel_out, obs_opts);

    if (!crash_plan_path.empty() || !crash_points.empty() ||
        clean_remount) {
        fault::FaultPlan cplan;
        cplan.seed = 1234;
        if (!crash_plan_path.empty()) {
            cplan = fault::loadPlanFile(crash_plan_path);
            for (const fault::FaultSpec &s : cplan.faults)
                if (s.kind == fault::FaultKind::PowerCut)
                    crash_points.push_back(s.nth);
            std::printf("crash plan: %zu crash point(s), seed %llu "
                        "(%s)\n",
                        crash_points.size(),
                        static_cast<unsigned long long>(cplan.seed),
                        crash_plan_path.c_str());
        }
        SimContext::processDefault().faults.arm(cplan);
        return runCrashCampaign(flavor, crash_points, clean_remount,
                                crash_out, cplan.seed, obs_opts);
    }

    fault::FaultPlan plan;
    bool have_plan = false;
    if (!fault_plan_path.empty()) {
        plan = fault::loadPlanFile(fault_plan_path);
        have_plan = true;
        std::printf("fault campaign: %zu spec(s), seed %llu (%s)\n",
                    plan.faults.size(),
                    static_cast<unsigned long long>(plan.seed),
                    fault_plan_path.c_str());
    }

    if (fleet > 0)
        return runFleet(flavor, have_plan ? &plan : nullptr, fleet,
                        streams, threads);

    // --- Classic single-device run ---
    EventQueue eq;
    SimContext &ctx = eq.context();
    if (have_plan)
        ctx.faults.arm(plan);

    ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.chips = 8;
    cfg.rateMT = 200;
    ChannelSystem sys(eq, "ssd", cfg);

    auto ctrl = demoController(eq, flavor, sys, ctx.faults.armed());

    ftl::FtlConfig fcfg;
    fcfg.blocksPerChip = 4;
    fcfg.overprovision = 0.25;
    ftl::PageFtl ftl(eq, "ftl", *ctrl, fcfg);

    std::printf("mini-SSD: 8-way Hynix channel @200 MT/s, %s "
                "controller, %llu logical pages of %u B\n",
                ctrl->flavorName(),
                static_cast<unsigned long long>(ftl.logicalPages()),
                ftl.pageBytes());

    // Precondition: fill half the logical space.
    const std::uint64_t extent = ftl.logicalPages() / 2;
    host::FioConfig fill_cfg;
    fill_cfg.queueDepth = 16;
    host::FioEngine filler(eq, "fill", ftl, fill_cfg);
    bool filled = false;
    filler.fill(extent, [&] { filled = true; });
    eq.run();
    if (!filled)
        fatal("fill did not complete");
    std::printf("preconditioned %llu pages in %.1f ms of device time "
                "(%.1f MB/s write)\n",
                static_cast<unsigned long long>(extent),
                ticks::toMs(filler.elapsed()), filler.bandwidthMBps());

    // Trace only the measured READ phases; the fill's records would
    // just push them out of the ring (and defeat the auditor's
    // conservation pass, which needs an unwrapped window).
    if (ctx.trace.enabled())
        ctx.trace.clear();

    auto &pm = ctx.power;
    for (bool random_pattern : {false, true}) {
        host::FioConfig io;
        io.pattern = random_pattern ? host::FioConfig::Pattern::Random
                                    : host::FioConfig::Pattern::Sequential;
        io.queueDepth = 32;
        io.extentPages = extent;
        io.totalIos = 400;
        io.dramBase = 16 << 20;
        host::FioEngine engine(eq, "fio", ftl, io);
        const std::uint64_t e0 =
            pm.enabled() ? pm.grandTotalFjAt(eq.now()) : 0;
        bool done = false;
        engine.start([&] { done = true; });
        eq.run();
        if (!done || engine.errors())
            fatal("fio run failed");

        std::printf("%-10s READ: %7.1f MB/s  %8.0f IOPS   lat p50/p95/"
                    "p99 = %.0f/%.0f/%.0f us",
                    random_pattern ? "random" : "sequential",
                    engine.bandwidthMBps(), engine.iops(),
                    engine.latencyUs().percentile(50),
                    engine.latencyUs().percentile(95),
                    engine.latencyUs().percentile(99));
        if (pm.enabled()) {
            const std::uint64_t e1 = pm.grandTotalFjAt(eq.now());
            std::printf("   %.1f nJ/IO",
                        static_cast<double>(e1 - e0) / 400 / 1e6);
        }
        std::printf("\n");
    }

    if (ctx.faults.armed())
        std::printf("\n%s\n", ctx.faults.summary().c_str());

    obs_opts.captureMetrics(eq);
    int status = obs_opts.finalize();

    std::printf("\nRun with 'rtos' or 'hw' to compare flavours on the "
                "identical workload.\n");
    return status;
}
