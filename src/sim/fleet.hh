/**
 * @file
 * Fleet mode: N fully independent simulated devices x M workload
 * streams in one process — the simulator's only parallel tier. Each
 * device runs on its own classic EventQueue; parallelism comes from
 * running many devices at once, never from splitting one.
 *
 * Members are assigned to OS threads by the fixed mapping
 * member m -> thread (m mod T), and every member on a thread runs
 * sequentially to completion, so per-member results are independent of
 * the thread count. Isolation is the member job's responsibility: give
 * each member its own SimContext and build the whole member (queue
 * bound to that context, device, workload) inside the job, so nothing
 * but the global label interner (thread-safe) is shared.
 */

#ifndef BABOL_SIM_FLEET_HH
#define BABOL_SIM_FLEET_HH

#include <cstddef>
#include <cstdint>
#include <functional>

namespace babol::sim {

class FleetEngine
{
  public:
    /**
     * Run jobs [0, count) over @p threads OS threads (clamped to
     * count; the calling thread participates). @p job receives the
     * member index; exceptions are captured and the one from the
     * lowest-numbered failing member is rethrown on the calling
     * thread after every member finished or failed.
     */
    static void run(std::size_t count, std::uint32_t threads,
                    const std::function<void(std::size_t)> &job);

    /**
     * Deterministic per-member seed: a fixed splitmix64 of the base
     * seed and member index, so member streams are decorrelated and
     * independent of thread count or launch order.
     */
    static std::uint64_t memberSeed(std::uint64_t base, std::size_t member);
};

} // namespace babol::sim

#endif // BABOL_SIM_FLEET_HH
