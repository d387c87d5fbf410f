/**
 * @file
 * Entry point of the end-to-end benchmark.
 *
 *   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--scale X]
 *
 * Repeats the workload (every flavour, fresh devices, same seed) until
 * S seconds have passed, checks every repetition's outputs and that all
 * of them produced the same digest of simulated outputs, and prints
 * that digest and then, as the last line, one JSON object:
 *
 *  - --trace 0: the end-to-end metrics. Host-side figures are medians
 *    over the repetitions; simulated figures are exact.
 *  - --trace 1: the per-layer metrics. Repetitions alternate between
 *    untraced and traced devices (timing wrappers at the layer
 *    boundaries); the digests of both kinds must agree, which shows the
 *    wrappers do not perturb the model.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>

#include "adapter.hh"
#include "workloads.hh"

using namespace e2e;

namespace {

/** Repetitions a run makes at least, whatever --seconds says. */
constexpr int kMinUnits = 3;
constexpr int kMinUnitsTraced = 4;

/** Every workload runs on Hynix 16 KiB pages. */
constexpr std::uint32_t kPageBytes = 16384;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
hostIosPerS(const UnitResult &r)
{
    return r.measuredS > 0 ? static_cast<double>(r.measuredIos) / r.measuredS
                           : 0;
}

std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--scale X]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUint(const char *s, const char *what)
{
    std::uint64_t v = 0;
    const char *end = s + std::strlen(s);
    const auto res = std::from_chars(s, end, v);
    if (res.ec != std::errc{} || res.ptr != end)
        usage((std::string("bad ") + what).c_str());
    return v;
}

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, as BENCHMARK.json declares them. */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_ios_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"ok_io_frac", "fraction"},
    {"sim_mbps.hw", "MB/s"},
    {"sim_mbps.rtos", "MB/s"},
    {"sim_mbps.coro", "MB/s"},
    {"sim_nj_per_io.hw", "nJ"},
    {"sim_nj_per_io.rtos", "nJ"},
    {"sim_nj_per_io.coro", "nJ"},
    {"sim_mount_ms.hw", "ms"},
    {"sim_mount_ms.rtos", "ms"},
    {"sim_mount_ms.coro", "ms"},
};

/** The per-layer metrics of the traced run, likewise. */
constexpr MetricDef kPerLayer[] = {
    {"sim_p99_us.hw", "us"},
    {"sim_p99_us.rtos", "us"},
    {"sim_p99_us.coro", "us"},
    {"sim.events_per_io", "count"},
    {"sim.allocs_per_io", "count"},
    {"sim.setup_allocs", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"core.ecc_decode_cw_per_io", "count"},
    {"core.ecc_encode_cw_per_io", "count"},
    {"core.ecc_host_ns_per_cw.decode", "ns"},
    {"core.ecc_host_ns_per_cw.extract", "ns"},
    {"core.ecc_host_ns_per_cw.encode", "ns"},
    {"core.ecc_host_share", "fraction"},
    {"core.queue_wait_us.p99.hw", "us"},
    {"core.queue_wait_us.p99.rtos", "us"},
    {"core.queue_wait_us.p99.coro", "us"},
    {"core.service_us.p50.hw", "us"},
    {"core.service_us.p50.rtos", "us"},
    {"core.service_us.p50.coro", "us"},
    {"core.txns_per_op", "count"},
    {"core.sched_passes_per_op", "count"},
    {"core.retries_per_read", "count"},
    {"core.submit_host_ns_per_op", "ns"},
    {"cpu.busy_frac.rtos", "fraction"},
    {"cpu.busy_frac.coro", "fraction"},
    {"chan.bus_busy_frac", "fraction"},
    {"chan.segments_per_op", "count"},
    {"chan.bytes_per_io", "B"},
    {"nand.reads_per_io", "count"},
    {"nand.programs_per_io", "count"},
    {"nand.erases_per_io", "count"},
    {"nand.oob_reads_per_io", "count"},
    {"ftl.write_amp", "ratio"},
    {"ftl.gc_moves_per_write", "count"},
    {"ftl.erases_per_write", "count"},
    {"ftl.failed_writes", "count"},
    {"ftl.host_ns_per_io", "ns"},
    {"ftl.mount_pages_scanned", "count"},
    {"ftl.mount_host_ms", "ms"},
    {"ftl.torn_pages", "count"},
    {"host.rmw_per_write", "count"},
    {"host.interrupts_per_io", "count"},
    {"host.doorbells_per_io", "count"},
    {"host.sq_full_waits", "count"},
    {"host.hic_stalls", "count"},
    {"host.worst_tenant_p99_us", "us"},
    {"host.submit_host_ns_per_io", "ns"},
    {"dram.bytes_per_io", "B"},
    {"obs.power_share.lun", "fraction"},
    {"obs.power_share.bus", "fraction"},
    {"obs.power_share.cpu", "fraction"},
    {"obs.power_share.dram", "fraction"},
    {"obs.trace_overhead_frac", "fraction"},
    {"ssd.build_host_s", "s"},
    {"ssd.precondition_host_s", "s"},
    {"paper.gap_err_pp.rtos", "pp"},
    {"paper.gap_err_pp.coro", "pp"},
    {"failed_io_frac", "fraction"},
};

} // namespace

int
main(int argc, char **argv)
{
    UnitOptions opt;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = parseUint(v, "--seed");
        else if (a == "--seconds")
            seconds = static_cast<double>(parseUint(v, "--seconds"));
        else if (a == "--trace")
            trace = static_cast<int>(parseUint(v, "--trace"));
        else if (a == "--scale")
            opt.scale = std::strtod(v, nullptr);
        else
            usage(("unknown option " + a).c_str());
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end())
        usage("unknown --workload");
    if (seconds < 0 || (trace != 0 && trace != 1) || !(opt.scale > 0))
        usage("need --seconds, --trace 0|1 and a positive --scale");

    enablePowerModel();

    LayerClock clock;
    std::vector<UnitResult> plain, traced;
    const std::int64_t t0 = LayerClock::nowNs();
    const int min_units = trace ? kMinUnitsTraced : kMinUnits;
    for (int i = 0;; ++i) {
        const bool tr = trace && i % 2 == 1;
        UnitResult r = runUnit(opt, tr ? &clock : nullptr);
        std::fprintf(stderr,
                     "e2ebench: %s unit %d%s: setup %.3f s, measured %.3f s, "
                     "%llu IOs, digest %016llx%s%s\n",
                     opt.workload.c_str(), i, tr ? " (traced)" : "",
                     median(r.setupS), r.measuredS,
                     static_cast<unsigned long long>(r.measuredIos),
                     static_cast<unsigned long long>(r.digest),
                     r.correct ? "" : ", FAILED: ", r.error.c_str());
        (tr ? traced : plain).push_back(std::move(r));
        const double elapsed =
            static_cast<double>(LayerClock::nowNs() - t0) / 1e9;
        if (i + 1 >= min_units && elapsed >= seconds)
            break;
    }

    // Output checks and the determinism witness.
    bool correct = true;
    std::string error;
    std::uint64_t attempted = 0, failed = 0;
    const std::uint64_t digest = plain.front().digest;
    for (const auto *set : {&plain, &traced}) {
        for (const UnitResult &r : *set) {
            attempted += r.attempted;
            failed += r.failed;
            if (!r.correct && correct) {
                correct = false;
                error = r.error;
            }
            if (r.digest != digest && correct) {
                correct = false;
                error = "digest of simulated outputs differs between "
                        "repetitions";
            }
        }
    }
    if (!correct)
        std::fprintf(stderr, "e2ebench: output check failed: %s\n",
                     error.c_str());

    auto collect = [](const std::vector<UnitResult> &set, auto &&f) {
        std::vector<double> v;
        for (const UnitResult &r : set)
            f(r, v);
        return v;
    };
    const double plain_rate = median(collect(
        plain, [](const UnitResult &r, auto &v) { v.push_back(hostIosPerS(r)); }));

    std::map<std::string, double> values;
    if (!trace) {
        struct rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        values["setup_s"] = median(collect(plain, [](const UnitResult &r,
                                                    auto &v) {
            v.insert(v.end(), r.setupS.begin(), r.setupS.end());
        }));
        values["host_ios_per_s"] = plain_rate;
        values["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
        values["ok_io_frac"] = attempted ? static_cast<double>(attempted -
                                                               failed) /
                                               static_cast<double>(attempted)
                                         : 0;
        for (const auto &[name, value] : plain.front().sim)
            values[name] = value;
    } else {
        // Timed and counted at the boundaries: medians over the traced
        // repetitions.
        for (const auto &[name, value] : traced.front().layer) {
            values[name] = median(collect(
                traced, [&name](const UnitResult &r, auto &v) {
                    v.push_back(r.layer.at(name));
                }));
        }
        // Allocation counts and whole-run host costs come from the
        // untraced repetitions, where no wrapper adds to them.
        values["sim.allocs_per_io"] = median(collect(
            plain, [](const UnitResult &r, auto &v) {
                v.push_back(static_cast<double>(r.measuredAllocs) /
                            static_cast<double>(r.measuredIos));
            }));
        values["sim.setup_allocs"] = median(collect(
            plain, [](const UnitResult &r, auto &v) {
                v.insert(v.end(), r.setupAllocs.begin(),
                         r.setupAllocs.end());
            }));
        values["sim.host_ns_per_event"] = median(collect(
            plain, [](const UnitResult &r, auto &v) {
                v.push_back(r.measuredS * 1e9 /
                            static_cast<double>(r.measuredEvents));
            }));
        values["ssd.build_host_s"] = median(collect(
            plain, [](const UnitResult &r, auto &v) {
                v.insert(v.end(), r.buildS.begin(), r.buildS.end());
            }));
        values["ssd.precondition_host_s"] = median(collect(
            plain, [](const UnitResult &r, auto &v) {
                for (std::size_t k = 0; k < r.setupS.size(); ++k)
                    v.push_back(r.setupS[k] - r.buildS[k]);
            }));
        const double traced_rate = median(collect(
            traced,
            [](const UnitResult &r, auto &v) { v.push_back(hostIosPerS(r)); }));
        values["obs.trace_overhead_frac"] =
            plain_rate > 0 ? 1.0 - traced_rate / plain_rate : 0;

        const EccCost ecc = measureEccCost(kPageBytes, opt.seed);
        values["core.ecc_host_ns_per_cw.decode"] = ecc.decodeNsPerCw;
        values["core.ecc_host_ns_per_cw.extract"] = ecc.extractNsPerCw;
        values["core.ecc_host_ns_per_cw.encode"] = ecc.encodeNsPerCw;
        const double ecc_ns_per_io =
            values["core.ecc_decode_cw_per_io"] *
                (ecc.decodeNsPerCw + ecc.extractNsPerCw) +
            values["core.ecc_encode_cw_per_io"] * ecc.encodeNsPerCw;
        values["core.ecc_host_share"] = ecc_ns_per_io * plain_rate / 1e9;
        values["failed_io_frac"] =
            attempted ? static_cast<double>(failed) /
                            static_cast<double>(attempted)
                      : 0;
    }

    std::vector<Metric> metrics;
    for (const MetricDef &m : trace ? std::span<const MetricDef>(kPerLayer)
                                    : std::span<const MetricDef>(kEndToEnd)) {
        const auto it = values.find(m.name);
        if (it == values.end()) {
            std::fprintf(stderr, "e2ebench: metric %s not measured\n",
                         m.name);
            return 3;
        }
        metrics.push_back({m.name, m.unit, it->second});
    }

    std::printf("digest %016llx\n", static_cast<unsigned long long>(digest));
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
