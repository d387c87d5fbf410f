/**
 * @file
 * The benchmark's only window onto the simulator.
 *
 * Every call into the program goes through this adapter: the workloads
 * in workloads.cc see benchmark-level types only, so an API change in
 * src/ is absorbed here. The adapter assembles a device through the
 * public API (one bare ChannelSystem behind a controller flavour, or a
 * multi-channel ssd::Ssd), puts a PageFtl on it and, when asked, a Hic
 * plus an NvmeFrontEnd, and reads the layers' public counters.
 *
 * Traced devices interpose timing wrappers at the public layer
 * boundaries and nowhere else: a FlashBackend decorator between the
 * FTL and the controller, and timed calls into the FTL and the NVMe
 * front end. An untraced device has none of them.
 */

#ifndef E2EBENCH_ADAPTER_HH
#define E2EBENCH_ADAPTER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "layer_clock.hh"

namespace e2e {

/** Simulated time in picoseconds, the simulator's tick. */
using Tick = std::uint64_t;
constexpr double kTicksPerUs = 1e6;

enum class Flavour { Hw, Rtos, Coro };
constexpr Flavour kFlavours[] = {Flavour::Hw, Flavour::Rtos, Flavour::Coro};
const char *flavourName(Flavour f);

using Done = std::function<void(bool ok)>;

struct DeviceSpec
{
    Flavour flavour = Flavour::Coro;

    /** 0 = one bare channel (ChannelSystem + controller, as Fig. 12);
     *  otherwise an ssd::Ssd with this many channels. */
    std::uint32_t channels = 0;
    std::uint32_t ways = 8;

    /** Geometry overrides of the Hynix package (0 = datasheet value). */
    std::uint32_t pagesPerBlock = 0;
    std::uint32_t blocksPerPlane = 0;

    std::uint32_t ftlBlocksPerChip = 4;
    double overprovision = 0.25;
    std::uint32_t writeBufferPages = 0;
    std::uint32_t wearSpreadThreshold = 0;

    /** > 0 puts a Hic and an NvmeFrontEnd with this many queue pairs
     *  on top of the FTL. */
    std::uint32_t queuePairs = 0;
};

/** One NVMe-style host command. */
struct HostCmd
{
    bool write = false;
    std::uint64_t slba = 0;
    std::uint32_t sectors = 1;
    std::uint64_t prp = 0; //!< host buffer in the staging DRAM
    std::uint32_t queue = 0;
    std::uint32_t tenant = 0;
};

/** Indices of the public counters the benchmark reads. */
namespace ctr {
enum : std::size_t {
    events,      //!< events fired (sim)
    now,         //!< simulated time, ticks
    busBusy,     //!< chan: bus busy ticks, all channels
    busSegments, //!< chan: segments issued
    busBytes,    //!< chan: data bytes in + out
    txns,        //!< core: transactions the exec units ran
    schedPasses, //!< core: soft-runtime scheduler passes
    cpuBusy,     //!< cpu: busy ticks, all controller CPUs
    lunReads,    //!< nand: array reads (OOB reads included)
    lunPrograms,
    lunErases,
    dramBytes,   //!< dram: bytes read + written
    fjTotal,     //!< obs: energy, fJ, whole model
    fjLun,       //!< obs: energy by rail
    fjBus,
    fjCpu,
    fjDram,
    ftlHostWrites, //!< ftl: host page writes accepted
    gcMoves,
    ftlErases,
    mountPages,
    tornPages,
    rmw,           //!< host: HIC read-modify-writes
    interrupts,
    doorbells,     //!< host: SQ + CQ doorbell writes
    hicStalls,
    count
};
} // namespace ctr

/** Snapshot of every public counter; differences of two snapshots give
 *  the work one phase did. */
using Counters = std::array<std::uint64_t, ctr::count>;

/** What the traced FlashBackend decorator saw, for the measured phase
 *  (ops completing while LayerClock::measuring() is set). */
struct FlashOpStats
{
    struct Counts
    {
        std::uint64_t reads = 0, programs = 0, erases = 0, oobReads = 0;
        std::uint64_t decodeCw = 0; //!< codewords decoded, retries included
        std::uint64_t encodeCw = 0;
        std::uint64_t readRetries = 0;
    } n;
    std::vector<double> queueWaitUs; //!< start - submit
    std::vector<double> serviceUs;   //!< done - start
};

class Device
{
  public:
    /** @p clock non-null builds a traced device that charges host time
     *  at the layer boundaries to it. */
    Device(const DeviceSpec &spec, LayerClock *clock = nullptr);
    ~Device();
    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    std::uint32_t pageBytes() const;
    std::uint64_t logicalPages() const;
    std::uint32_t channelCount() const;
    std::uint32_t sectorBytes() const;
    std::uint32_t sectorsPerPage() const;

    /** First staging-DRAM address free for workload buffers, and the
     *  bytes available from there. */
    std::uint64_t bufferBase() const;
    std::uint64_t bufferBytes() const;

    void stage(std::uint64_t addr, std::span<const std::uint8_t> data);
    void fetch(std::uint64_t addr, std::span<std::uint8_t> out);

    /** FTL page I/O (direct-call host path). */
    void read(std::uint64_t lpn, std::uint64_t addr, Done cb);
    void write(std::uint64_t lpn, std::uint64_t addr, Done cb);

    /** NVMe submission; false when the queue is full. */
    bool submit(const HostCmd &cmd, Done cb);
    /** Run @p fn once the host frees slots in queue @p qid. */
    void onSqSpace(std::uint32_t qid, std::function<void()> fn);

    /** Run @p fn at simulated time @p when. */
    void at(Tick when, std::function<void()> fn);
    Tick now() const;
    void run();
    bool step();

    /** Mount the FTL from the flash (OOB scan); runs the queue. */
    bool mount();

    /** Tear down the FTL (and host front end) and build fresh ones on
     *  the same flash, as after a controller restart. Call mount()
     *  next. */
    void restartFtl();

    /** Cut power on every LUN (tears in-flight programs). */
    void powerCut();

    /** Take over @p other's cells, chip by chip: the power cycle. */
    void adoptCells(const Device &other);

    /** Where @p lpn lives (packed chip/block/page), nullopt unmapped. */
    std::optional<std::uint64_t> where(std::uint64_t lpn) const;

    Counters counters() const;
    const FlashOpStats &opStats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Host cost of the ECC engine's public calls at one page size. */
struct EccCost
{
    double encodeNsPerCw = 0;
    double decodeNsPerCw = 0;
    double extractNsPerCw = 0;
};

EccCost measureEccCost(std::uint32_t page_bytes, std::uint64_t seed);

/** Turn the simulator's power model on (before any device exists). */
void enablePowerModel();

} // namespace e2e

#endif // E2EBENCH_ADAPTER_HH
