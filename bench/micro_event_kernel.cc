/**
 * @file
 * Event-kernel microbenchmark: events/sec and per-event heap allocations.
 *
 * Drives a workload shaped like the simulator's steady state — dozens of
 * self-rescheduling actors with ONFI-scale delays, periodic armed-then-
 * cancelled timeouts (suspend/resume style), and occasional far-future
 * events (tPROG/tBERS scale) — through the pooled / inline-callback /
 * timing-wheel EventQueue.
 *
 * The phase runs three times and the reported rate is the median; all
 * three samples are kept in the JSON so drift stays visible. The rate
 * is recorded history, not a gate: it depends on the machine.
 *
 * Heap traffic is counted by overriding global operator new, so the
 * zero-allocation claim covers everything, not just the pool; the exit
 * status is 1 when the steady state allocates. Results are written as
 * JSON to BENCH_event_kernel.json at the repo root (or --out PATH).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

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

struct Driver
{
    static constexpr int kActors = 64;
    // ONFI-ish delays in picoseconds: command/address cycles through a
    // data burst up to a short array wait.
    static constexpr Tick kDelays[8] = {5000,   7500,   12500,  25000,
                                        50000,  100000, 400000, 1000000};

    explicit Driver(babol::EventQueue &eq) : eq_(eq), timeouts_(kActors) {}

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

    babol::EventQueue &eq_;
    std::vector<babol::EventHandle> timeouts_;
    std::uint64_t fired_ = 0;
    std::uint64_t steps_ = 0;
};

struct Phase
{
    double eventsPerSec = 0;
    double allocsPerEvent = 0;
    std::uint64_t fired = 0;
};

Phase
runKernel(babol::EventQueue &eq, std::uint64_t warmup,
          std::uint64_t measured)
{
    Driver driver(eq);
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

    // Three runs of the kernel phase; the median is reported.
    Phase kernelRuns[3];
    babol::EventQueue::PoolStats stats{};
    for (Phase &run : kernelRuns) {
        babol::EventQueue eq;
        run = runKernel(eq, warmup, measured);
        stats = eq.poolStats();
    }
    const Phase &kernel = medianPhase(kernelRuns);

    const double inlineRate =
        stats.inlineCallbacks + stats.outlineCallbacks > 0
            ? static_cast<double>(stats.inlineCallbacks) /
                  static_cast<double>(stats.inlineCallbacks +
                                      stats.outlineCallbacks)
            : 0;

    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

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
    emit("  \"kernel_events_per_sec\": %.0f,\n", kernel.eventsPerSec);
    emit("  \"kernel_events_per_sec_runs\": [%.0f, %.0f, %.0f],\n",
         kernelRuns[0].eventsPerSec, kernelRuns[1].eventsPerSec,
         kernelRuns[2].eventsPerSec);
    emit("  \"kernel_allocs_per_event\": %.4f,\n", kernel.allocsPerEvent);
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

    // Every run counts here, not only the median one.
    for (const Phase &run : kernelRuns) {
        if (run.allocsPerEvent > 0.001) {
            std::cerr << "WARNING: kernel steady state is not "
                         "allocation-free\n";
            return 1;
        }
    }
    return 0;
}
