/**
 * @file
 * The benchmark workloads, their seeded input generators and their
 * output checks. Everything here talks to the simulator through the
 * adapter (adapter.hh) only.
 *
 * Why these four (README.md has the long form):
 *  - read_fig12: the paper's headline, ECC decode and the read path;
 *  - write_gc: the write path under steady-state garbage collection;
 *  - nvme_tenants: the host layer, open loop, many IOs in flight;
 *  - crash_remount: power cuts, the OOB mount scan, recovery.
 */

#include "workloads.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>

#include "adapter.hh"
#include "alloc_count.hh"

namespace e2e {
namespace {

// ---------------------------------------------------------------------
// Workload sizes. The measured-phase IO counts are scaled by
// UnitOptions::scale; geometries are fixed.
// ---------------------------------------------------------------------

/** read_fig12: Fig. 12's device (8 ways, 4 FTL blocks of 256 pages per
 *  chip, 25% over-provisioning) and its 64-pages-per-way extent, less
 *  a seeded 0-15 pages so every simulated figure depends on the seed;
 *  random page reads at QD 32 in fio's random-map order. */
constexpr std::uint32_t kReadWays = 8;
constexpr std::uint64_t kReadIos = 12000;
constexpr std::uint32_t kReadQd = 32;

/** write_gc: small blocks so GC reaches steady state quickly: 32
 *  blocks x 16 pages per chip, 3/4 of it logical, all of the logical
 *  space filled, then random single-page overwrites at QD 32: one pass
 *  over the logical space as warm-up, then the measured ones. */
constexpr std::uint32_t kGcPagesPerBlock = 16;
constexpr std::uint32_t kGcBlocks = 32;
constexpr std::uint64_t kGcWarmupPasses = 1;
constexpr std::uint64_t kGcWrites = 3000;

/** nvme_tenants: 4 channels x 4 ways, 8 blocks of 64 pages per chip,
 *  half of the logical space filled; 64 tenants on fixed periodic
 *  schedules in three rate classes (IOPS), 70/30 read/write, odd
 *  tenants single-sector. The rates keep every flavour well below
 *  saturation, so no backlog grows over the phase. */
constexpr std::uint32_t kNvmeChannels = 4;
constexpr std::uint32_t kNvmeWays = 4;
constexpr std::uint32_t kNvmePagesPerBlock = 64;
constexpr std::uint32_t kNvmeBlocks = 8;
constexpr std::uint32_t kNvmeQueuePairs = 4;
constexpr std::uint32_t kTenants = 64;
constexpr double kTenantIops[3] = {200, 100, 50};
constexpr double kWriteShare = 0.30;
constexpr double kNvmePhaseMs = 400;

/** crash_remount: the crash campaign's device (4 chips, 8-page blocks,
 *  8 managed per chip), write buffer and static wear levelling on;
 *  stamped writes at QD 8 over half the logical space. Each power cycle
 *  cuts after a seeded number of acknowledgements near its base. */
constexpr std::uint64_t kCrashPoints[] = {128, 256, 384};
constexpr std::uint32_t kCrashQd = 8;

/** Queue depth of the read-back checks after a remount. */
constexpr std::uint32_t kVerifyQd = 8;

/** LPNs read back after the non-crash remounts, on top of every LPN
 *  whose mapping moved. */
constexpr std::uint64_t kRemountSample = 64;

/** The paper's 8-way random-read gaps to the hw baseline (percent), as
 *  fig12_end_to_end prints them. */
constexpr double kPaperGapPct[] = {0.0, 3.0, 9.0}; // hw, rtos, coro

// ---------------------------------------------------------------------
// Seeded inputs, digest, statistics
// ---------------------------------------------------------------------

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** splitmix64 stream; one per purpose, so inputs stay independent. */
class Rng
{
  public:
    Rng(std::uint64_t seed, std::uint64_t purpose)
        : s_(mix64(seed) ^ mix64(purpose + 0x51ED))
    {
    }
    std::uint64_t next() { return mix64(s_ += 0x9E3779B97F4A7C15ull); }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t s_;
};

class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 1099511628211ull;
        }
    }
    void
    addDouble(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t k = std::clamp<std::size_t>(
        static_cast<std::size_t>(rank), 1, v.size());
    return v[k - 1];
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

// ---------------------------------------------------------------------
// Stamped payloads: every written unit (a host sector, or a page when
// there is no host front end) carries (magic, id, generation) and a
// keyed word stream, so a read proves which generation it holds.
// ---------------------------------------------------------------------

constexpr std::uint64_t kMagic = 0xB0B07E575EC70001ull;
constexpr std::size_t kHeaderBytes = 24;

std::uint64_t
streamWord(std::uint64_t key, std::size_t off)
{
    return key ^ (off * 0x9E3779B97F4A7C15ull);
}

void
stamp(std::uint8_t *p, std::uint32_t bytes, std::uint64_t id,
      std::uint64_t gen)
{
    const std::uint64_t head[3] = {kMagic, id, gen};
    std::memcpy(p, head, kHeaderBytes);
    const std::uint64_t key = mix64(id * 0x10001u + gen);
    for (std::size_t off = kHeaderBytes; off + 8 <= bytes; off += 8) {
        const std::uint64_t w = streamWord(key, off);
        std::memcpy(p + off, &w, 8);
    }
}

/** Generation an intact stamp of @p id carries; 0 if not intact. */
std::uint64_t
stampedGen(const std::uint8_t *p, std::uint32_t bytes, std::uint64_t id)
{
    std::uint64_t head[3];
    std::memcpy(head, p, kHeaderBytes);
    if (head[0] != kMagic || head[1] != id || head[2] == 0)
        return 0;
    const std::uint64_t key = mix64(id * 0x10001u + head[2]);
    for (std::size_t off = kHeaderBytes; off + 8 <= bytes; off += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + off, 8);
        if (w != streamWord(key, off))
            return 0;
    }
    return head[2];
}

/** Random page order as fio's default random map gives it: every page
 *  of the extent once per pass, each pass a fresh permutation. */
class RandomMap
{
  public:
    RandomMap(std::uint64_t pages, Rng rng) : rng_(rng), order_(pages)
    {
        for (std::uint64_t i = 0; i < pages; ++i)
            order_[i] = i;
        pos_ = pages;
    }

    std::uint64_t
    next()
    {
        if (pos_ == order_.size()) {
            for (std::size_t i = order_.size(); i > 1; --i)
                std::swap(order_[i - 1], order_[rng_.below(i)]);
            pos_ = 0;
        }
        return order_[pos_++];
    }

  private:
    Rng rng_;
    std::vector<std::uint64_t> order_;
    std::size_t pos_ = 0;
};

/** Per unit id: the last generation issued and the last acknowledged.
 *  A read must return a generation in [acked at issue, issued now]. */
struct Ledger
{
    explicit Ledger(std::uint64_t units) : issued(units, 0), acked(units, 0)
    {
    }
    std::vector<std::uint64_t> issued;
    std::vector<std::uint64_t> acked;
};

// ---------------------------------------------------------------------
// The unit: setup / measured-phase bookkeeping shared by the workloads
// ---------------------------------------------------------------------

/** One flavour's simulated results. */
struct FlavourAcc
{
    Tick elapsed = 0;
    Tick chanTicks = 0;
    std::uint64_t ios = 0;
    std::uint64_t bytes = 0;
    std::uint64_t fj = 0;
    Tick cpuBusy = 0;
    std::vector<double> latUs;
    std::vector<double> mountMs;
    std::vector<double> queueWaitUs;
    std::vector<double> serviceUs;
    double worstTenantP99 = 0;
};

/** Sums over the measured phases of every flavour. */
struct Totals
{
    Counters d{};
    Tick chanTicks = 0;
    std::uint64_t ios = 0;
    std::uint64_t writeIos = 0;
    std::uint64_t failedWrites = 0;
    std::uint64_t hostCmds = 0;
    std::uint64_t sqFullWaits = 0;

    // From the traced decorator and the layer clock.
    std::uint64_t flashOps = 0, reads = 0, oobReads = 0;
    std::uint64_t decodeCw = 0, encodeCw = 0, retries = 0;
    std::int64_t hostNs = 0, ftlNs = 0, coreNs = 0;

    std::uint64_t mounts = 0, mountPages = 0, tornPages = 0;
    std::int64_t mountHostNs = 0;
};

class Unit
{
  public:
    Unit(const UnitOptions &opt, LayerClock *clock)
        : opt_(opt), clock_(clock)
    {
    }

    const UnitOptions &opt() const { return opt_; }
    UnitResult &res() { return res_; }
    Fnv &fnv() { return fnv_; }
    Totals &tot() { return tot_; }
    FlavourAcc &flav() { return flav_; }

    std::uint64_t
    scaled(std::uint64_t n) const
    {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::llround(n * opt_.scale)));
    }

    void
    fail(const std::string &why)
    {
        if (res_.correct)
            res_.error = why;
        res_.correct = false;
    }

    // --- setup: device build + precondition ---

    void
    setupBegin()
    {
        setupT0_ = LayerClock::nowNs();
        setupA0_ = allocCount();
        buildNs_ = 0;
    }

    std::unique_ptr<Device>
    build(const DeviceSpec &spec)
    {
        const std::int64_t t0 = LayerClock::nowNs();
        auto d = std::make_unique<Device>(spec, clock_);
        buildNs_ += LayerClock::nowNs() - t0;
        return d;
    }

    void
    setupEnd()
    {
        res_.setupS.push_back(
            static_cast<double>(LayerClock::nowNs() - setupT0_) / 1e9);
        res_.buildS.push_back(static_cast<double>(buildNs_) / 1e9);
        res_.setupAllocs.push_back(
            static_cast<double>(allocCount() - setupA0_));
    }

    // --- measured phases ---

    void
    measureBegin(Device &d)
    {
        if (clock_) {
            clock_->reset();
            clock_->setMeasuring(true);
        }
        const FlashOpStats &s = d.opStats();
        ops0_ = s.n;
        samples0_ = s.queueWaitUs.size();
        c0_ = d.counters();
        a0_ = allocCount();
        t0_ = LayerClock::nowNs();
    }

    /** Close a measured phase that completed @p ios host IOs. */
    void
    measureEnd(Device &d, std::uint64_t ios)
    {
        const std::int64_t t1 = LayerClock::nowNs();
        const std::uint64_t a1 = allocCount();
        const Counters c1 = d.counters();
        res_.measuredS += static_cast<double>(t1 - t0_) / 1e9;
        res_.measuredIos += ios;
        res_.measuredEvents += c1[ctr::events] - c0_[ctr::events];
        res_.measuredAllocs += a1 - a0_;
        for (std::size_t i = 0; i < ctr::count; ++i)
            tot_.d[i] += c1[i] - c0_[i];
        const Tick elapsed = c1[ctr::now] - c0_[ctr::now];
        tot_.chanTicks += elapsed * d.channelCount();
        tot_.ios += ios;
        flav_.elapsed += elapsed;
        flav_.chanTicks += elapsed * d.channelCount();
        flav_.ios += ios;
        flav_.fj += c1[ctr::fjTotal] - c0_[ctr::fjTotal];
        flav_.cpuBusy += c1[ctr::cpuBusy] - c0_[ctr::cpuBusy];
        fnv_.add(elapsed);
        fnv_.add(c1[ctr::fjTotal] - c0_[ctr::fjTotal]);
        fnv_.add(c1[ctr::events] - c0_[ctr::events]);
        if (!clock_)
            return;
        clock_->setMeasuring(false);
        tot_.hostNs += clock_->selfNs(Layer::Host);
        tot_.ftlNs += clock_->selfNs(Layer::Ftl);
        tot_.coreNs += clock_->selfNs(Layer::Core);
        const FlashOpStats &s = d.opStats();
        const FlashOpStats::Counts &n = s.n;
        tot_.reads += n.reads - ops0_.reads;
        tot_.flashOps += (n.reads - ops0_.reads) +
                         (n.programs - ops0_.programs) +
                         (n.erases - ops0_.erases) +
                         (n.oobReads - ops0_.oobReads);
        tot_.oobReads += n.oobReads - ops0_.oobReads;
        tot_.decodeCw += n.decodeCw - ops0_.decodeCw;
        tot_.encodeCw += n.encodeCw - ops0_.encodeCw;
        tot_.retries += n.readRetries - ops0_.readRetries;
        flav_.queueWaitUs.insert(flav_.queueWaitUs.end(),
                                 s.queueWaitUs.begin() + samples0_,
                                 s.queueWaitUs.end());
        flav_.serviceUs.insert(flav_.serviceUs.end(),
                               s.serviceUs.begin() + samples0_,
                               s.serviceUs.end());
    }

    /** Mount @p d's FTL; records simulated and host mount time. */
    bool
    mount(Device &d)
    {
        const Counters c0 = d.counters();
        const std::int64_t t0 = LayerClock::nowNs();
        const bool ok = d.mount();
        tot_.mountHostNs += LayerClock::nowNs() - t0;
        const Counters c1 = d.counters();
        ++tot_.mounts;
        tot_.mountPages += c1[ctr::mountPages] - c0[ctr::mountPages];
        tot_.tornPages += c1[ctr::tornPages] - c0[ctr::tornPages];
        const Tick ticks = c1[ctr::now] - c0[ctr::now];
        flav_.mountMs.push_back(static_cast<double>(ticks) / 1e9);
        fnv_.add(ticks);
        fnv_.add(ok);
        if (!ok)
            fail("mount failed");
        return ok;
    }

    /** Close one flavour: publish its simulated figures. */
    void
    endFlavour(Flavour f)
    {
        const std::string n = flavourName(f);
        const FlavourAcc &a = flav_;
        const double mbps =
            a.elapsed ? static_cast<double>(a.bytes) * 1e6 /
                            static_cast<double>(a.elapsed)
                      : 0;
        double mount_ms = 0;
        for (double m : a.mountMs)
            mount_ms += m / static_cast<double>(a.mountMs.size());
        res_.sim["sim_mbps." + n] = mbps;
        res_.sim["sim_nj_per_io." + n] =
            ratio(static_cast<double>(a.fj) / 1e6, a.ios);
        res_.sim["sim_mount_ms." + n] = mount_ms;
        for (const auto &[k, v] : res_.sim)
            if (k.ends_with("." + n))
                fnv_.addDouble(v);

        res_.layer["sim_p99_us." + n] = percentile(a.latUs, 99);
        res_.layer["core.queue_wait_us.p99." + n] =
            percentile(a.queueWaitUs, 99);
        res_.layer["core.service_us.p50." + n] = percentile(a.serviceUs, 50);
        if (f != Flavour::Hw) {
            res_.layer["cpu.busy_frac." + n] =
                ratio(static_cast<double>(a.cpuBusy), a.chanTicks);
        }
        if (f == Flavour::Coro)
            res_.layer["host.worst_tenant_p99_us"] = a.worstTenantP99;
        flav_ = FlavourAcc{};
    }

    /** Derive the unit's per-layer figures from the totals. */
    void finish();

  private:
    const UnitOptions &opt_;
    LayerClock *clock_;
    UnitResult res_;
    Fnv fnv_;
    Totals tot_;
    FlavourAcc flav_;

    std::int64_t setupT0_ = 0, buildNs_ = 0;
    std::uint64_t setupA0_ = 0;

    Counters c0_{};
    std::uint64_t a0_ = 0;
    std::int64_t t0_ = 0;
    FlashOpStats::Counts ops0_{};
    std::size_t samples0_ = 0;
};

void
Unit::finish()
{
    const Totals &t = tot_;
    const Counters &d = t.d;
    const double ios = static_cast<double>(t.ios);
    const double ops = static_cast<double>(t.flashOps);
    const double host_writes = static_cast<double>(d[ctr::ftlHostWrites]);
    auto &L = res_.layer;

    L["sim.events_per_io"] = ratio(d[ctr::events], ios);

    L["core.ecc_decode_cw_per_io"] = ratio(t.decodeCw, ios);
    L["core.ecc_encode_cw_per_io"] = ratio(t.encodeCw, ios);
    L["core.txns_per_op"] = ratio(d[ctr::txns], ops);
    L["core.sched_passes_per_op"] = ratio(d[ctr::schedPasses], ops);
    L["core.retries_per_read"] = ratio(t.retries, t.reads);
    L["core.submit_host_ns_per_op"] = ratio(t.coreNs, ops);

    L["chan.bus_busy_frac"] = ratio(d[ctr::busBusy], t.chanTicks);
    L["chan.segments_per_op"] = ratio(d[ctr::busSegments], ops);
    L["chan.bytes_per_io"] = ratio(d[ctr::busBytes], ios);

    L["nand.reads_per_io"] = ratio(d[ctr::lunReads], ios);
    L["nand.programs_per_io"] = ratio(d[ctr::lunPrograms], ios);
    L["nand.erases_per_io"] = ratio(d[ctr::lunErases], ios);
    L["nand.oob_reads_per_io"] = ratio(t.oobReads, ios);

    L["ftl.write_amp"] = ratio(d[ctr::lunPrograms], host_writes);
    L["ftl.gc_moves_per_write"] = ratio(d[ctr::gcMoves], host_writes);
    L["ftl.erases_per_write"] = ratio(d[ctr::ftlErases], host_writes);
    L["ftl.failed_writes"] = static_cast<double>(t.failedWrites);
    L["ftl.host_ns_per_io"] = ratio(t.ftlNs, ios);
    L["ftl.mount_pages_scanned"] = ratio(t.mountPages, t.mounts);
    L["ftl.mount_host_ms"] = ratio(t.mountHostNs / 1e6, t.mounts);
    L["ftl.torn_pages"] = static_cast<double>(t.tornPages);

    L["host.rmw_per_write"] = ratio(d[ctr::rmw], t.writeIos);
    L["host.interrupts_per_io"] = ratio(d[ctr::interrupts], t.hostCmds);
    L["host.doorbells_per_io"] = ratio(d[ctr::doorbells], t.hostCmds);
    L["host.sq_full_waits"] = static_cast<double>(t.sqFullWaits);
    L["host.hic_stalls"] = static_cast<double>(d[ctr::hicStalls]);
    L["host.submit_host_ns_per_io"] = ratio(t.hostNs, t.hostCmds);

    L["dram.bytes_per_io"] = ratio(d[ctr::dramBytes], ios);

    const double rails = static_cast<double>(d[ctr::fjLun]) +
                         static_cast<double>(d[ctr::fjBus]) +
                         static_cast<double>(d[ctr::fjCpu]) +
                         static_cast<double>(d[ctr::fjDram]);
    L["obs.power_share.lun"] = ratio(d[ctr::fjLun], rails);
    L["obs.power_share.bus"] = ratio(d[ctr::fjBus], rails);
    L["obs.power_share.cpu"] = ratio(d[ctr::fjCpu], rails);
    L["obs.power_share.dram"] = ratio(d[ctr::fjDram], rails);

    const double hw = res_.sim["sim_mbps.hw"];
    for (Flavour f : {Flavour::Rtos, Flavour::Coro}) {
        const std::string n = flavourName(f);
        const double gap = 100.0 * ratio(hw - res_.sim["sim_mbps." + n], hw);
        L["paper.gap_err_pp." + n] =
            gap - kPaperGapPct[static_cast<int>(f)];
    }
    res_.digest = fnv_.value();
}

// ---------------------------------------------------------------------
// Closed loop of page IOs through the FTL
// ---------------------------------------------------------------------

struct PageIo
{
    bool write = false;
    std::uint64_t lpn = 0;
};

/**
 * Keeps @p qd page IOs in flight through the FTL, as long as next()
 * yields IOs. Writes carry stamped payloads (one stamp per sector, so
 * the same ledger serves a host front end); reads are checked against
 * the ledger. Optionally stops dead at the Nth acknowledged write, the
 * moment the power is cut.
 *
 * An IO still outstanding when the simulation has drained will never
 * complete: it counts as failed, as a host command timeout would.
 */
class ClosedLoop
{
  public:
    using Next = std::function<bool(PageIo &)>;

    ClosedLoop(Unit &u, Device &d, Ledger &led, std::uint32_t qd, Next next)
        : u_(u), d_(d), led_(led), next_(std::move(next)), slots_(qd),
          spp_(d.sectorsPerPage()), sectorBytes_(d.sectorBytes()),
          buf_(d.pageBytes())
    {
        for (std::uint32_t i = 0; i < qd; ++i) {
            slots_[i].addr = d.bufferBase() + std::uint64_t(i) * d.pageBytes();
            slots_[i].gen.resize(spp_);
        }
    }

    void
    run(std::uint64_t stop_after_acks = 0)
    {
        stopAt_ = stop_after_acks;
        for (std::uint32_t i = 0; i < slots_.size(); ++i)
            issue(i);
        if (stopAt_ == 0) {
            d_.run();
            for (Slot &s : slots_) {
                if (!s.busy)
                    continue;
                s.busy = false;
                ++failed;
                ++hung;
                if (s.io.write)
                    ++failedWrites;
            }
        } else {
            while (!stopped_ && d_.step()) {
            }
        }
    }

    std::uint64_t issued() const { return issued_; }
    std::uint64_t completed = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0; //!< completed with an error, or hung
    std::uint64_t hung = 0;
    std::uint64_t writes = 0; //!< write IOs issued
    std::uint64_t ackedWrites = 0;
    std::uint64_t failedWrites = 0;
    std::vector<double> latUs;
    bool stopped() const { return stopped_; }

  private:
    struct Slot
    {
        PageIo io;
        bool busy = false;
        Tick issued = 0;
        std::uint64_t addr = 0;
        std::vector<std::uint64_t> gen; //!< write: gen; read: lower bound
    };

    std::uint64_t unitId(std::uint64_t lpn, std::uint32_t s) const
    {
        return lpn * spp_ + s;
    }

    void
    issue(std::uint32_t i)
    {
        Slot &s = slots_[i];
        if (stopped_ || !next_(s.io))
            return;
        ++issued_;
        s.busy = true;
        s.issued = d_.now();
        auto cb = [this, i](bool ok) { complete(i, ok); };
        if (s.io.write) {
            ++writes;
            for (std::uint32_t k = 0; k < spp_; ++k) {
                const std::uint64_t id = unitId(s.io.lpn, k);
                s.gen[k] = ++led_.issued[id];
                stamp(buf_.data() + std::size_t(k) * sectorBytes_,
                      sectorBytes_, id, s.gen[k]);
            }
            d_.stage(s.addr, buf_);
            d_.write(s.io.lpn, s.addr, cb);
        } else {
            for (std::uint32_t k = 0; k < spp_; ++k)
                s.gen[k] = led_.acked[unitId(s.io.lpn, k)];
            d_.read(s.io.lpn, s.addr, cb);
        }
    }

    void
    complete(std::uint32_t i, bool ok)
    {
        Slot &s = slots_[i];
        s.busy = false;
        latUs.push_back(static_cast<double>(d_.now() - s.issued) /
                        kTicksPerUs);
        ++completed;
        this->ok += ok;
        Fnv &fnv = u_.fnv();
        fnv.add(s.io.lpn);
        fnv.add(d_.now());
        fnv.add(ok);
        if (s.io.write) {
            if (ok) {
                ++ackedWrites;
                for (std::uint32_t k = 0; k < spp_; ++k) {
                    std::uint64_t &a = led_.acked[unitId(s.io.lpn, k)];
                    a = std::max(a, s.gen[k]);
                }
            } else {
                ++failed;
                ++failedWrites;
            }
        } else if (!ok) {
            ++failed;
        } else {
            d_.fetch(s.addr, buf_);
            for (std::uint32_t k = 0; k < spp_; ++k) {
                const std::uint64_t id = unitId(s.io.lpn, k);
                const std::uint64_t g = stampedGen(
                    buf_.data() + std::size_t(k) * sectorBytes_,
                    sectorBytes_, id);
                fnv.add(g);
                if (g == 0 || g < s.gen[k] || g > led_.issued[id]) {
                    u_.fail("read of unit " + std::to_string(id) +
                            " returned generation " + std::to_string(g) +
                            ", expected " + std::to_string(s.gen[k]) +
                            ".." + std::to_string(led_.issued[id]));
                }
            }
        }
        if (stopAt_ != 0 && ackedWrites == stopAt_) {
            stopped_ = true;
            return;
        }
        issue(i);
    }

    Unit &u_;
    Device &d_;
    Ledger &led_;
    Next next_;
    std::vector<Slot> slots_;
    std::uint32_t spp_;
    std::uint32_t sectorBytes_;
    std::vector<std::uint8_t> buf_;
    std::uint64_t stopAt_ = 0;
    std::uint64_t issued_ = 0;
    bool stopped_ = false;
};

/** Write LPNs [0, pages) once, in order, at QD 16 (precondition). */
void
fill(Unit &u, Device &d, Ledger &led, std::uint64_t pages)
{
    std::uint64_t next = 0;
    ClosedLoop loop(u, d, led, 16, [&](PageIo &io) {
        if (next == pages)
            return false;
        io = {true, next++};
        return true;
    });
    loop.run();
    if (loop.failed != 0)
        u.fail("precondition: " + std::to_string(loop.failed) + " of " +
               std::to_string(pages) + " writes failed");
}

/** Read back every listed LPN through the FTL and check it. */
void
verifyReads(Unit &u, Device &d, Ledger &led,
            const std::vector<std::uint64_t> &lpns)
{
    std::size_t next = 0;
    ClosedLoop loop(u, d, led, kVerifyQd, [&](PageIo &io) {
        if (next == lpns.size())
            return false;
        io = {false, lpns[next++]};
        return true;
    });
    loop.run();
    if (loop.failed != 0)
        u.fail(std::to_string(loop.failed) + " verification reads failed");
}

/**
 * Restart the FTL on the device's flash, time the mount, and check it
 * rebuilt the same mapping: every LPN whose location moved, and a
 * seeded sample of the rest, is read back and checked.
 */
void
remountAndCheck(Unit &u, Device &d, Ledger &led, std::uint64_t pages,
                Rng &rng)
{
    constexpr std::uint64_t kUnmapped = ~std::uint64_t(0);
    std::vector<std::uint64_t> before(pages);
    for (std::uint64_t l = 0; l < pages; ++l)
        before[l] = d.where(l).value_or(kUnmapped);
    d.restartFtl();
    if (!u.mount(d))
        return;
    std::vector<std::uint64_t> check;
    for (std::uint64_t l = 0; l < pages; ++l) {
        const std::uint64_t now = d.where(l).value_or(kUnmapped);
        if (now == before[l])
            continue;
        if (now == kUnmapped) {
            if (led.acked[l * d.sectorsPerPage()] != 0)
                u.fail("remount lost LPN " + std::to_string(l));
            continue;
        }
        check.push_back(l);
    }
    for (std::uint64_t i = 0; i < kRemountSample; ++i)
        check.push_back(rng.below(pages));
    verifyReads(u, d, led, check);
}

// ---------------------------------------------------------------------
// read_fig12
// ---------------------------------------------------------------------

void
runReadFig12(Unit &u)
{
    Rng shape(u.opt().seed, 1);
    const std::uint64_t extent = 64ull * kReadWays - shape.below(16);
    const std::uint64_t reads = u.scaled(kReadIos);
    for (Flavour f : kFlavours) {
        DeviceSpec spec;
        spec.flavour = f;
        spec.ways = kReadWays;
        spec.ftlBlocksPerChip = 4;
        spec.overprovision = 0.25;

        u.setupBegin();
        auto dev = u.build(spec);
        Ledger led(dev->logicalPages());
        fill(u, *dev, led, extent);
        u.setupEnd();

        RandomMap order(extent, Rng(u.opt().seed, 2));
        std::uint64_t issued = 0;
        ClosedLoop loop(u, *dev, led, kReadQd, [&](PageIo &io) {
            if (issued == reads)
                return false;
            ++issued;
            io = {false, order.next()};
            return true;
        });
        u.measureBegin(*dev);
        loop.run();
        u.measureEnd(*dev, loop.completed);
        u.res().attempted += loop.issued();
        u.res().failed += loop.failed;
        u.flav().bytes += loop.ok * dev->pageBytes();
        u.flav().latUs = std::move(loop.latUs);

        Rng check(u.opt().seed, 3);
        remountAndCheck(u, *dev, led, extent, check);
        u.endFlavour(f);
    }
}

// ---------------------------------------------------------------------
// write_gc
// ---------------------------------------------------------------------

void
runWriteGc(Unit &u)
{
    const std::uint64_t writes = u.scaled(kGcWrites);
    for (Flavour f : kFlavours) {
        DeviceSpec spec;
        spec.flavour = f;
        spec.ways = 8;
        spec.pagesPerBlock = kGcPagesPerBlock;
        spec.blocksPerPlane = kGcBlocks / 2;
        spec.ftlBlocksPerChip = kGcBlocks;
        spec.overprovision = 0.25;

        // Random single-page overwrites at QD 32: the warm-up (part of
        // the precondition) brings GC to steady state, the measured
        // phase follows on from it with the same stream.
        std::uint64_t pages = 0, issued = 0, quota = 0;
        std::unique_ptr<RandomMap> order;
        auto overwrite = [&](PageIo &io) {
            if (issued == quota)
                return false;
            ++issued;
            io = {true, order->next()};
            return true;
        };
        auto account = [&u](const ClosedLoop &loop) {
            u.res().attempted += loop.issued();
            u.res().failed += loop.failed;
            u.tot().failedWrites += loop.failedWrites;
        };

        u.setupBegin();
        auto dev = u.build(spec);
        pages = dev->logicalPages();
        order = std::make_unique<RandomMap>(pages, Rng(u.opt().seed, 4));
        Ledger led(pages);
        fill(u, *dev, led, pages);
        quota = kGcWarmupPasses * pages;
        ClosedLoop warmup(u, *dev, led, 32, overwrite);
        warmup.run();
        account(warmup);
        u.setupEnd();

        issued = 0;
        quota = writes;
        ClosedLoop loop(u, *dev, led, 32, overwrite);
        u.measureBegin(*dev);
        loop.run();
        u.measureEnd(*dev, loop.completed);
        account(loop);
        u.tot().writeIos += loop.writes;
        u.flav().bytes += loop.ackedWrites * dev->pageBytes();
        u.flav().latUs = std::move(loop.latUs);

        Rng check(u.opt().seed, 5);
        remountAndCheck(u, *dev, led, pages, check);
        u.endFlavour(f);
    }
}

// ---------------------------------------------------------------------
// nvme_tenants: open loop through Hic + NvmeFrontEnd
// ---------------------------------------------------------------------

/**
 * 64 tenants, each with a fixed Poisson schedule drawn from the seed.
 * A command is submitted when it is due, whatever is still in flight;
 * when its submission queue is full it waits in the tenant's backlog
 * and is retried when the host frees slots. Latency runs from the due
 * time, so a stall also counts against the commands queued behind it.
 */
class OpenLoop
{
  public:
    OpenLoop(Unit &u, Device &d, Ledger &led, std::uint64_t pages,
             Tick horizon)
        : u_(u), d_(d), led_(led), spp_(d.sectorsPerPage()),
          sectorBytes_(d.sectorBytes()), tenants_(kTenants),
          buf_(d.pageBytes())
    {
        if (spp_ > Cmd{}.gen.size()) {
            u.fail("nvme_tenants: more sectors per page than a command "
                   "tracks");
            return;
        }
        const std::uint64_t slice = pages / kTenants;
        Rng rng(u.opt().seed, 6);
        const Tick start = d.now();
        for (std::uint32_t t = 0; t < kTenants; ++t) {
            const bool small = t % 2 == 1;
            const double gap =
                1e12 / kTenantIops[t % 3]; // ticks between commands
            for (double at = static_cast<double>(start) + rng.unit() * gap;
                 at < static_cast<double>(start + horizon); at += gap) {
                Cmd c;
                c.tenant = t;
                c.due = static_cast<Tick>(at);
                c.write = rng.unit() < kWriteShare;
                const std::uint64_t page = t * slice + rng.below(slice);
                if (small) {
                    c.slba = page * spp_ + rng.below(spp_);
                    c.sectors = 1;
                } else {
                    c.slba = page * spp_;
                    c.sectors = spp_;
                }
                writes += c.write;
                cmds_.push_back(c);
            }
        }
        std::stable_sort(cmds_.begin(), cmds_.end(),
                         [](const Cmd &a, const Cmd &b) {
                             return a.due < b.due;
                         });
        const std::uint64_t slots = d.bufferBytes() / d.pageBytes();
        for (std::uint64_t s = slots; s-- > 0;)
            freeSlots_.push_back(d.bufferBase() + s * d.pageBytes());
    }

    void
    run()
    {
        for (std::uint32_t i = 0; i < cmds_.size(); ++i)
            d_.at(cmds_[i].due, [this, i] { arrive(i); });
        d_.run();
        // Never completed once the simulation drained: a timeout.
        for (const Cmd &c : cmds_) {
            if (c.done)
                continue;
            ++failed;
            failedWrites += c.write;
        }
    }

    std::uint64_t commands() const { return cmds_.size(); }
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t writes = 0;
    std::uint64_t failedWrites = 0;
    std::uint64_t sqFullWaits = 0;
    std::uint64_t bytes = 0;
    std::vector<double> latUs;

    double
    worstTenantP99() const
    {
        double worst = 0;
        for (const Tenant &t : tenants_)
            worst = std::max(worst, percentile(t.latUs, 99));
        return worst;
    }

  private:
    struct Cmd
    {
        std::uint32_t tenant = 0;
        bool write = false;
        std::uint64_t slba = 0;
        std::uint32_t sectors = 1;
        Tick due = 0;
        bool done = false;
        std::uint64_t prp = 0;
        std::array<std::uint64_t, 4> gen{}; //!< write: gen; read: floor
    };

    struct Tenant
    {
        std::deque<std::uint32_t> backlog;
        bool waiting = false;
        std::vector<double> latUs;
    };

    void
    arrive(std::uint32_t i)
    {
        Cmd &c = cmds_[i];
        if (!c.write)
            for (std::uint32_t k = 0; k < c.sectors; ++k)
                c.gen[k] = led_.acked[c.slba + k];
        Tenant &t = tenants_[c.tenant];
        t.backlog.push_back(i);
        if (!t.waiting)
            pump(c.tenant);
    }

    /** Submit the tenant's backlog in order until a queue is full. */
    void
    pump(std::uint32_t tenant)
    {
        Tenant &t = tenants_[tenant];
        const std::uint32_t qid = tenant % kNvmeQueuePairs;
        while (!t.backlog.empty()) {
            const std::uint32_t i = t.backlog.front();
            Cmd &c = cmds_[i];
            if (freeSlots_.empty()) {
                u_.fail("nvme_tenants ran out of host buffers");
                return;
            }
            c.prp = freeSlots_.back();
            if (c.write) {
                for (std::uint32_t k = 0; k < c.sectors; ++k) {
                    const std::uint64_t id = c.slba + k;
                    c.gen[k] = led_.issued[id] + 1;
                    stamp(buf_.data() + std::size_t(k) * sectorBytes_,
                          sectorBytes_, id, c.gen[k]);
                }
                d_.stage(c.prp, std::span(buf_.data(),
                                          std::size_t(c.sectors) *
                                              sectorBytes_));
            }
            HostCmd hc;
            hc.write = c.write;
            hc.slba = c.slba;
            hc.sectors = c.sectors;
            hc.prp = c.prp;
            hc.queue = qid;
            hc.tenant = tenant;
            if (!d_.submit(hc, [this, i](bool ok) { complete(i, ok); })) {
                ++sqFullWaits;
                t.waiting = true;
                d_.onSqSpace(qid, [this, tenant] {
                    tenants_[tenant].waiting = false;
                    pump(tenant);
                });
                return;
            }
            freeSlots_.pop_back();
            if (c.write)
                for (std::uint32_t k = 0; k < c.sectors; ++k)
                    led_.issued[c.slba + k] = c.gen[k];
            t.backlog.pop_front();
        }
    }

    void
    complete(std::uint32_t i, bool ok)
    {
        Cmd &c = cmds_[i];
        c.done = true;
        const double lat = static_cast<double>(d_.now() - c.due) / kTicksPerUs;
        latUs.push_back(lat);
        tenants_[c.tenant].latUs.push_back(lat);
        ++completed;
        Fnv &fnv = u_.fnv();
        fnv.add(i);
        fnv.add(d_.now());
        fnv.add(ok);
        if (!ok) {
            ++failed;
            failedWrites += c.write;
        } else if (c.write) {
            for (std::uint32_t k = 0; k < c.sectors; ++k) {
                std::uint64_t &a = led_.acked[c.slba + k];
                a = std::max(a, c.gen[k]);
            }
        } else {
            const std::span out(buf_.data(),
                                std::size_t(c.sectors) * sectorBytes_);
            d_.fetch(c.prp, out);
            for (std::uint32_t k = 0; k < c.sectors; ++k) {
                const std::uint64_t id = c.slba + k;
                const std::uint64_t g = stampedGen(
                    buf_.data() + std::size_t(k) * sectorBytes_,
                    sectorBytes_, id);
                fnv.add(g);
                if (g == 0 || g < c.gen[k] || g > led_.issued[id]) {
                    u_.fail("nvme read of sector " + std::to_string(id) +
                            " returned generation " + std::to_string(g));
                }
            }
        }
        if (ok)
            bytes += std::uint64_t(c.sectors) * sectorBytes_;
        freeSlots_.push_back(c.prp);
    }

    Unit &u_;
    Device &d_;
    Ledger &led_;
    std::uint32_t spp_;
    std::uint32_t sectorBytes_;
    std::vector<Cmd> cmds_;
    std::vector<Tenant> tenants_;
    std::vector<std::uint64_t> freeSlots_;
    std::vector<std::uint8_t> buf_;
};

void
runNvmeTenants(Unit &u)
{
    const Tick horizon = static_cast<Tick>(
        std::llround(kNvmePhaseMs * u.opt().scale * 1e9));
    for (Flavour f : kFlavours) {
        DeviceSpec spec;
        spec.flavour = f;
        spec.channels = kNvmeChannels;
        spec.ways = kNvmeWays;
        spec.pagesPerBlock = kNvmePagesPerBlock;
        spec.blocksPerPlane = kNvmeBlocks / 2;
        spec.ftlBlocksPerChip = kNvmeBlocks;
        spec.overprovision = 0.25;
        spec.queuePairs = kNvmeQueuePairs;

        u.setupBegin();
        auto dev = u.build(spec);
        const std::uint64_t pages = dev->logicalPages() / 2;
        Ledger led(dev->logicalPages() * dev->sectorsPerPage());
        fill(u, *dev, led, pages);
        u.setupEnd();

        OpenLoop loop(u, *dev, led, pages, horizon);
        u.measureBegin(*dev);
        loop.run();
        u.measureEnd(*dev, loop.completed);
        u.res().attempted += loop.commands();
        u.res().failed += loop.failed;
        u.tot().writeIos += loop.writes;
        u.tot().failedWrites += loop.failedWrites;
        u.tot().hostCmds += loop.commands();
        u.tot().sqFullWaits += loop.sqFullWaits;
        u.flav().bytes += loop.bytes;
        u.flav().worstTenantP99 = loop.worstTenantP99();
        u.flav().latUs = std::move(loop.latUs);

        Rng check(u.opt().seed, 7);
        remountAndCheck(u, *dev, led, pages, check);
        u.endFlavour(f);
    }
}

// ---------------------------------------------------------------------
// crash_remount
// ---------------------------------------------------------------------

DeviceSpec
crashSpec(Flavour f)
{
    DeviceSpec spec;
    spec.flavour = f;
    spec.ways = 4;
    spec.pagesPerBlock = 8;
    spec.blocksPerPlane = 16;
    spec.ftlBlocksPerChip = 8;
    spec.overprovision = 0.25;
    spec.writeBufferPages = 4;
    spec.wearSpreadThreshold = 8;
    return spec;
}

void
runCrashRemount(Unit &u)
{
    Rng points(u.opt().seed, 8);
    std::vector<std::uint64_t> crash_at;
    for (std::uint64_t base : kCrashPoints)
        crash_at.push_back(u.scaled(base) + points.below(16));

    for (Flavour f : kFlavours) {
        u.setupBegin();
        auto dev = u.build(crashSpec(f));
        u.setupEnd();
        const std::uint64_t extent = dev->logicalPages() / 2;
        Ledger led(extent);
        Rng rng(u.opt().seed, 9);

        // One device lifetime with several power cuts: after each
        // remount the writes carry on from where the ledger left off.
        for (std::uint64_t acks : crash_at) {
            ClosedLoop writer(u, *dev, led, kCrashQd, [&](PageIo &io) {
                io = {true, rng.below(extent)};
                return true;
            });
            u.measureBegin(*dev);
            writer.run(acks);
            u.measureEnd(*dev, writer.completed);
            u.res().attempted += writer.completed;
            u.res().failed += writer.failed;
            u.tot().writeIos += writer.writes;
            u.tot().failedWrites += writer.failedWrites;
            u.flav().bytes += writer.ackedWrites * dev->pageBytes();
            u.flav().latUs.insert(u.flav().latUs.end(),
                                  writer.latUs.begin(), writer.latUs.end());
            if (!writer.stopped())
                u.fail("crash point beyond the workload");
            u.fnv().add(acks);

            // Power cut at the acks-th acknowledgement; only the cells
            // survive into a fresh stack.
            dev->powerCut();
            u.setupBegin();
            auto next = u.build(crashSpec(f));
            next->adoptCells(*dev);
            dev = std::move(next);
            u.setupEnd();

            // Mount, then read back every LPN: nothing acknowledged may
            // be lost, nothing older than it may come back.
            u.measureBegin(*dev);
            std::vector<std::uint64_t> mapped;
            if (u.mount(*dev)) {
                for (std::uint64_t l = 0; l < extent; ++l) {
                    if (dev->where(l))
                        mapped.push_back(l);
                    else if (led.acked[l] != 0)
                        u.fail("acknowledged write to LPN " +
                               std::to_string(l) + " lost in the crash");
                }
            }
            std::size_t next_read = 0;
            ClosedLoop reader(u, *dev, led, kVerifyQd, [&](PageIo &io) {
                if (next_read == mapped.size())
                    return false;
                io = {false, mapped[next_read++]};
                return true;
            });
            reader.run();
            u.measureEnd(*dev, reader.completed);
            u.res().attempted += reader.issued();
            u.res().failed += reader.failed;
            u.flav().bytes += reader.ok * dev->pageBytes();
            u.flav().latUs.insert(u.flav().latUs.end(),
                                  reader.latUs.begin(), reader.latUs.end());
        }
        u.endFlavour(f);
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "read_fig12", "write_gc", "nvme_tenants", "crash_remount"};
    return names;
}

UnitResult
runUnit(const UnitOptions &opt, LayerClock *clock)
{
    Unit u(opt, clock);
    if (opt.workload == "read_fig12")
        runReadFig12(u);
    else if (opt.workload == "write_gc")
        runWriteGc(u);
    else if (opt.workload == "nvme_tenants")
        runNvmeTenants(u);
    else
        runCrashRemount(u);
    u.finish();
    return std::move(u.res());
}

} // namespace e2e
