/**
 * @file
 * The four benchmark workloads. One call to runUnit() runs a workload
 * once for every controller flavour, on fresh devices, from the seed:
 * the same seed gives the same inputs and the same simulated outputs.
 */

#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layer_clock.hh"

namespace e2e {

struct UnitOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Multiplies every measured-phase IO count (smoke tests use a
     *  small fraction; the benchmark runs at 1). */
    double scale = 1.0;
};

struct UnitResult
{
    /** Every output check passed; @c error says which failed if not. */
    bool correct = true;
    std::string error;

    /** Host IOs attempted and failed or refused, measured phases. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** FNV-1a over the simulated outputs (completion ticks, payload
     *  generations, energy, mount times): the determinism witness. */
    std::uint64_t digest = 0;

    /** Host seconds of each device build + precondition. */
    std::vector<double> setupS;
    /** The build part of each entry of setupS. */
    std::vector<double> buildS;
    /** Heap allocations of each setup. */
    std::vector<double> setupAllocs;

    /** Host seconds spent in the measured phases, the host IOs they
     *  completed, the events they fired and the allocations they
     *  made. */
    double measuredS = 0;
    std::uint64_t measuredIos = 0;
    std::uint64_t measuredEvents = 0;
    std::uint64_t measuredAllocs = 0;

    /** Simulated end-to-end figures, by metric name (deterministic). */
    std::map<std::string, double> sim;
    /** Per-layer figures, by metric name. */
    std::map<std::string, double> layer;
};

const std::vector<std::string> &workloadNames();

/** Run @p opt.workload once for every flavour. @p clock non-null makes
 *  it a traced unit. */
UnitResult runUnit(const UnitOptions &opt, LayerClock *clock);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH
