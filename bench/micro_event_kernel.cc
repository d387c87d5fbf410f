/**
 * @file
 * Event-kernel microbenchmark: events/sec and per-event heap allocations.
 *
 * Drives a workload shaped like the simulator's steady state — dozens of
 * self-rescheduling actors with ONFI-scale delays, periodic armed-then-
 * cancelled timeouts (suspend/resume style), and occasional far-future
 * events (tPROG/tBERS scale) — through two kernels:
 *
 *   - "seed": a faithful replica of the original kernel (one
 *     shared_ptr<Record> + type-erased std::function per event, single
 *     std::priority_queue), kept here so the speedup is measured against
 *     a fixed baseline rather than a moving one;
 *   - "kernel": the pooled / inline-callback / timing-wheel EventQueue;
 *   - "kernel+obs(off)": the same kernel with the observability hot
 *     path compiled in but recording disabled — per event it takes the
 *     span begin/end guards an instrumented component takes plus one
 *     disabled power-meter charge, measuring the tax tracing and power
 *     accounting impose when they are not in use (CI guards this
 *     against the plain kernel);
 *   - "kernel+scrub(off)": the same kernel paying the bookkeeping a
 *     host op costs when the patrol scrubber is compiled in but
 *     stopped — the host-inflight window the scrubber's idle test
 *     reads, and the per-read disturb counter with its threshold
 *     check (CI guards this against the plain kernel too).
 *
 * Every phase runs three times, INTERLEAVED round-robin (seed, kernel,
 * obs-off, scrub-off, seed, ...), and the reported figure is the
 * per-phase median.
 * Interleaving matters: back-to-back runs of the same phase see the
 * same frequency/cache drift, which once produced a negative "overhead"
 * for the obs build simply because it ran last. All three samples are
 * kept in the JSON so drift stays visible.
 *
 * Heap traffic is counted by overriding global operator new, so the
 * zero-allocation claim covers everything, not just the pool. Results
 * are written as JSON to
 * BENCH_event_kernel.json at the repo root (or --out PATH) so the perf
 * trajectory is tracked across PRs.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "obs/sim_context.hh"
#include "sim/event_queue.hh"

// ---------------------------------------------------------------------
// Global allocation counter
// ---------------------------------------------------------------------

static std::uint64_t g_allocCount = 0;

void *
operator new(std::size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using babol::Tick;

// ---------------------------------------------------------------------
// The seed kernel, verbatim in structure: shared_ptr records, type-
// erased callbacks, one binary heap.
// ---------------------------------------------------------------------

class SeedHandle
{
  public:
    SeedHandle() = default;

    struct Record
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::function<void()> fn;
        bool cancelled = false;
        bool fired = false;
    };

    bool pending() const { return rec_ && !rec_->cancelled && !rec_->fired; }

    void
    cancel()
    {
        if (rec_)
            rec_->cancelled = true;
    }

    explicit SeedHandle(std::shared_ptr<Record> rec) : rec_(std::move(rec))
    {}

  private:
    std::shared_ptr<Record> rec_;
};

class SeedEventQueue
{
  public:
    Tick now() const { return now_; }

    SeedHandle
    schedule(Tick when, std::function<void()> fn, const char * = "")
    {
        auto rec = std::make_shared<SeedHandle::Record>();
        rec->when = when;
        rec->seq = nextSeq_++;
        rec->fn = std::move(fn);
        heap_.push(rec);
        return SeedHandle(rec);
    }

    SeedHandle
    scheduleIn(Tick delay, std::function<void()> fn, const char *what = "")
    {
        return schedule(now_ + delay, std::move(fn), what);
    }

    bool
    step()
    {
        while (!heap_.empty()) {
            RecordPtr rec = heap_.top();
            heap_.pop();
            if (rec->cancelled)
                continue;
            now_ = rec->when;
            rec->fired = true;
            rec->fn();
            return true;
        }
        return false;
    }

  private:
    using RecordPtr = std::shared_ptr<SeedHandle::Record>;

    struct Later
    {
        bool
        operator()(const RecordPtr &a, const RecordPtr &b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::priority_queue<RecordPtr, std::vector<RecordPtr>, Later> heap_;
};

// ---------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------

template <typename Queue, bool WithObs = false, bool WithScrub = false>
struct Driver
{
    static constexpr int kActors = 64;
    // ONFI-ish delays in picoseconds: command/address cycles through a
    // data burst up to a short array wait.
    static constexpr Tick kDelays[8] = {5000,   7500,   12500,  25000,
                                        50000,  100000, 400000, 1000000};

    using Handle = decltype(std::declval<Queue &>().scheduleIn(
        Tick(0), [] {}, ""));

    explicit Driver(Queue &eq) : eq_(eq), timeouts_(kActors)
    {
        if constexpr (WithObs) {
            // Interned up front, as components do in their ctors.
            track_ = babol::obs::interner().intern("bench");
            label_ = babol::obs::interner().intern("op.step");
            // A meter against the queue's (disabled) power model, the
            // way every timed component owns one.
            meter_.emplace(eq_, "bench.lun",
                           std::initializer_list<const char *>{"busy"}, 1);
        }
    }

    void
    start()
    {
        for (int i = 0; i < kActors; ++i)
            eq_.scheduleIn(kDelays[i & 7], [this, i] { step(i); }, "actor");
    }

    void
    step(int i)
    {
        ++fired_;
        if constexpr (WithObs) {
            // The guards an instrumented component takes per operation:
            // an enabled check + early return on the begin and end
            // paths (recording stays off for this phase).
            auto &tr = eq_.context().trace;
            babol::obs::SpanId span = babol::obs::kNoSpan;
            if (tr.enabled()) {
                span = tr.beginSpan(track_, label_, eq_.now(),
                                    eq_.context().current,
                                    static_cast<std::uint64_t>(i));
            }
            tr.endSpan(span, eq_.now());
            // ... and the one-state-ended power charge: with the model
            // disabled this is the latched-bool early return, which is
            // exactly the tax the <3% overhead guard must cover.
            meter_->charge(0, eq_.now(), eq_.now() + 1000, 80);
        }
        if constexpr (WithScrub) {
            // The bookkeeping a host op pays with the patrol scrubber
            // compiled in but stopped: the inflight window its idle
            // test reads, and the per-read disturb counter with its
            // trip check (reset instead of refreshed here, so the
            // branch stays live but never schedules work).
            ++hostInflight_;
            std::uint32_t &d = disturb_[static_cast<std::size_t>(i)];
            if (++d >= 50000)
                d = 0;
            --hostInflight_;
        }
        const std::uint64_t s = steps_++;
        const Tick d = kDelays[(s + static_cast<std::uint64_t>(i)) & 7];
        if ((s & 3) == 0) {
            // Arm a long guard timer; the next arming cancels it, the
            // way suspend/resume churns LUN busy events.
            if (timeouts_[i].pending())
                timeouts_[i].cancel();
            timeouts_[i] = eq_.scheduleIn(d * 16, [this] { ++fired_; },
                                          "timeout");
        }
        if ((s & 63) == 0) {
            // tPROG/tBERS scale: far beyond any near-future horizon.
            eq_.scheduleIn(babol::ticks::fromUs(600), [this] { ++fired_; },
                           "far");
        }
        eq_.scheduleIn(d, [this, i] { step(i); }, "actor");
    }

    Queue &eq_;
    std::vector<Handle> timeouts_;
    std::optional<babol::obs::power::Meter> meter_; //!< WithObs only
    std::uint64_t fired_ = 0;
    std::uint64_t steps_ = 0;
    std::uint32_t track_ = 0;
    std::uint32_t label_ = 0;
    std::uint32_t hostInflight_ = 0;               //!< WithScrub only
    std::uint32_t disturb_[kActors] = {};          //!< WithScrub only
};

struct Phase
{
    double eventsPerSec = 0;
    double allocsPerEvent = 0;
    std::uint64_t fired = 0;
};

template <typename Queue, bool WithObs = false, bool WithScrub = false>
Phase
runKernel(Queue &eq, std::uint64_t warmup, std::uint64_t measured)
{
    Driver<Queue, WithObs, WithScrub> driver(eq);
    driver.start();
    while (driver.fired_ < warmup)
        eq.step();

    const std::uint64_t fired0 = driver.fired_;
    const std::uint64_t allocs0 = g_allocCount;
    const auto t0 = std::chrono::steady_clock::now();
    while (driver.fired_ < fired0 + measured)
        eq.step();
    const auto t1 = std::chrono::steady_clock::now();

    Phase p;
    p.fired = driver.fired_ - fired0;
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    p.eventsPerSec = sec > 0 ? static_cast<double>(p.fired) / sec : 0;
    p.allocsPerEvent = static_cast<double>(g_allocCount - allocs0) /
                       static_cast<double>(p.fired);
    return p;
}

/** The run whose events/sec is the median of the three samples. */
const Phase &
medianPhase(const Phase (&runs)[3])
{
    const Phase *p[3] = {&runs[0], &runs[1], &runs[2]};
    std::sort(p, p + 3, [](const Phase *a, const Phase *b) {
        return a->eventsPerSec < b->eventsPerSec;
    });
    return *p[1];
}

// ---------------------------------------------------------------------
// J/IO reference point: a compact single-channel read workload per
// controller flavour with the power model enabled, recorded alongside
// the perf figures so the energy trajectory is tracked across PRs (the
// CI guard reads the perf keys only; these fields are informational).
// ---------------------------------------------------------------------

double
runJPerIo(const std::string &flavor)
{
    using namespace babol;
    EventQueue eq;
    auto &pm = eq.context().power;
    bench::ChannelConfig cfg;
    cfg.chips = 4;
    bench::ChannelSystem sys(eq, "pwr", cfg);
    auto ctrl = ssd::makeController(eq, flavor, "ctrl", sys);
    bench::preconditionChannel(eq, sys, *ctrl, 8);

    const std::uint32_t luns = sys.chipCount();
    const std::uint64_t total = 200;
    const std::uint64_t e0 = pm.grandTotalFjAt(eq.now());
    std::uint64_t completed = 0;
    for (std::uint64_t i = 0; i < total; ++i) {
        bench::FlashRequest read;
        read.kind = bench::FlashOpKind::Read;
        read.chip = static_cast<std::uint32_t>(i % luns);
        read.row = {0, 0, static_cast<std::uint32_t>((i / luns) % 8)};
        read.dramAddr = (1 << 20) + static_cast<std::uint64_t>(read.chip) *
                                        sys.pageDataBytes();
        read.onComplete = [&](bench::OpResult) { ++completed; };
        ctrl->submit(std::move(read));
    }
    eq.run();
    babol_assert(completed == total, "J/IO workload lost operations");
    const std::uint64_t e1 = pm.grandTotalFjAt(eq.now());
    // fJ -> J.
    return static_cast<double>(e1 - e0) / static_cast<double>(total) / 1e15;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t measured = 2000000;
    std::string out = std::string(BABOL_SOURCE_DIR) +
                      "/BENCH_event_kernel.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            measured = 200000;
        } else if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::cerr << "usage: micro_event_kernel [--quick] [--out FILE]\n";
            return 2;
        }
    }
    const std::uint64_t warmup = measured / 10;

    // Three interleaved rounds of the four single-threaded phases.
    Phase seedRuns[3], kernelRuns[3], obsRuns[3], scrubRuns[3];
    babol::EventQueue::PoolStats stats{};
    for (int r = 0; r < 3; ++r) {
        SeedEventQueue seedQ;
        seedRuns[r] = runKernel(seedQ, warmup, measured);

        babol::EventQueue eq;
        kernelRuns[r] = runKernel(eq, warmup, measured);
        stats = eq.poolStats();

        babol::EventQueue eqObs;
        obsRuns[r] = runKernel<babol::EventQueue, true>(eqObs, warmup,
                                                        measured);

        babol::EventQueue eqScrub;
        scrubRuns[r] =
            runKernel<babol::EventQueue, false, true>(eqScrub, warmup,
                                                      measured);
    }
    const Phase &seed = medianPhase(seedRuns);
    const Phase &kernel = medianPhase(kernelRuns);
    const Phase &obsOff = medianPhase(obsRuns);
    const Phase &scrubOff = medianPhase(scrubRuns);

    const double obsOverheadPct =
        kernel.eventsPerSec > 0
            ? (kernel.eventsPerSec - obsOff.eventsPerSec) /
                  kernel.eventsPerSec * 100.0
            : 0;
    const double scrubOverheadPct =
        kernel.eventsPerSec > 0
            ? (kernel.eventsPerSec - scrubOff.eventsPerSec) /
                  kernel.eventsPerSec * 100.0
            : 0;

    const double speedup =
        seed.eventsPerSec > 0 ? kernel.eventsPerSec / seed.eventsPerSec : 0;
    const double inlineRate =
        stats.inlineCallbacks + stats.outlineCallbacks > 0
            ? static_cast<double>(stats.inlineCallbacks) /
                  static_cast<double>(stats.inlineCallbacks +
                                      stats.outlineCallbacks)
            : 0;

    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

    // Energy reference points, AFTER every perf phase: meters latch the
    // model's enabled flag at construction, so enabling here leaves all
    // the timed phases above on the disabled hot path.
    babol::SimContext::processDefault().power.enable();
    const double jPerIoHw = runJPerIo("hw");
    const double jPerIoRtos = runJPerIo("rtos");
    const double jPerIoCoro = runJPerIo("coro");

    std::string json;
    char buf[1024];
    auto emit = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        json += buf;
    };

    emit("{\n"
         "  \"bench\": \"micro_event_kernel\",\n"
         "  \"measured_events\": %llu,\n",
         static_cast<unsigned long long>(measured));
    emit("  \"seed_events_per_sec\": %.0f,\n", seed.eventsPerSec);
    emit("  \"seed_events_per_sec_runs\": [%.0f, %.0f, %.0f],\n",
         seedRuns[0].eventsPerSec, seedRuns[1].eventsPerSec,
         seedRuns[2].eventsPerSec);
    emit("  \"seed_allocs_per_event\": %.4f,\n", seed.allocsPerEvent);
    emit("  \"kernel_events_per_sec\": %.0f,\n", kernel.eventsPerSec);
    emit("  \"kernel_events_per_sec_runs\": [%.0f, %.0f, %.0f],\n",
         kernelRuns[0].eventsPerSec, kernelRuns[1].eventsPerSec,
         kernelRuns[2].eventsPerSec);
    emit("  \"kernel_allocs_per_event\": %.4f,\n", kernel.allocsPerEvent);
    emit("  \"kernel_obs_disabled_events_per_sec\": %.0f,\n",
         obsOff.eventsPerSec);
    emit("  \"kernel_obs_disabled_events_per_sec_runs\": "
         "[%.0f, %.0f, %.0f],\n",
         obsRuns[0].eventsPerSec, obsRuns[1].eventsPerSec,
         obsRuns[2].eventsPerSec);
    emit("  \"kernel_obs_disabled_allocs_per_event\": %.4f,\n",
         obsOff.allocsPerEvent);
    emit("  \"obs_disabled_overhead_pct\": %.2f,\n", obsOverheadPct);
    emit("  \"kernel_scrub_disabled_events_per_sec\": %.0f,\n",
         scrubOff.eventsPerSec);
    emit("  \"kernel_scrub_disabled_events_per_sec_runs\": "
         "[%.0f, %.0f, %.0f],\n",
         scrubRuns[0].eventsPerSec, scrubRuns[1].eventsPerSec,
         scrubRuns[2].eventsPerSec);
    emit("  \"kernel_scrub_disabled_allocs_per_event\": %.4f,\n",
         scrubOff.allocsPerEvent);
    emit("  \"scrub_disabled_overhead_pct\": %.2f,\n", scrubOverheadPct);
    emit("  \"speedup\": %.2f,\n", speedup);
    emit("  \"inline_callback_hit_rate\": %.4f,\n", inlineRate);
    emit("  \"pool_capacity\": %llu,\n",
         static_cast<unsigned long long>(stats.poolCapacity));
    emit("  \"pool_high_water\": %llu,\n",
         static_cast<unsigned long long>(stats.poolHighWater));
    emit("  \"wheel_inserts\": %llu,\n",
         static_cast<unsigned long long>(stats.wheelInserts));
    emit("  \"heap_inserts\": %llu,\n",
         static_cast<unsigned long long>(stats.heapInserts));
    emit("  \"ready_inserts\": %llu,\n",
         static_cast<unsigned long long>(stats.readyInserts));
    emit("  \"compactions\": %llu,\n",
         static_cast<unsigned long long>(stats.compactions));

    emit("  \"j_per_io_hw\": %.6g,\n", jPerIoHw);
    emit("  \"j_per_io_rtos\": %.6g,\n", jPerIoRtos);
    emit("  \"j_per_io_coro\": %.6g,\n", jPerIoCoro);

    emit("  \"machine_cores\": %u\n", cores);
    emit("}\n");

    std::cout << json;
    std::ofstream ofs(out);
    ofs << json;
    if (!ofs) {
        std::cerr << "\nerror: cannot write " << out << "\n";
        return 2;
    }
    std::cout << "\nwritten to " << out << "\n";

    if (kernel.allocsPerEvent > 0.001 ||
        obsOff.allocsPerEvent > 0.001 ||
        scrubOff.allocsPerEvent > 0.001) {
        std::cerr << "WARNING: kernel steady state is not allocation-free\n";
        return 1;
    }
    return 0;
}
