/**
 * @file
 * The adapter: the one file of the benchmark that includes simulator
 * headers and calls into the simulator.
 */

#include "adapter.hh"

#include <algorithm>

#include "core/coro/coro_controller.hh"
#include "core/ecc.hh"
#include "core/hw/hw_controller.hh"
#include "core/rtos_env/rtos_controller.hh"
#include "ftl/ftl.hh"
#include "host/hic.hh"
#include "host/nvme/nvme.hh"
#include "nand/timing.hh"
#include "obs/power/power.hh"
#include "ssd/ssd.hh"

namespace e2e {

using namespace babol;

const char *
flavourName(Flavour f)
{
    switch (f) {
      case Flavour::Hw:
        return "hw";
      case Flavour::Rtos:
        return "rtos";
      case Flavour::Coro:
        return "coro";
    }
    return "?";
}

namespace {

/**
 * Staging-DRAM layout: NVMe rings at 1 MiB, workload buffers from 2 MiB,
 * and the FTL's and HIC's scratch pages at the top. The buffer is sized
 * to that rather than left at the 64 MiB (channel) / 256 MiB (Ssd)
 * defaults: every device build zeroes it, and at the default sizes set-up
 * time was mostly page faults, whose cost drifted by a quarter between
 * sittings on a shared VM.
 */
constexpr std::uint64_t kRingBase = 1ull << 20;
constexpr std::uint64_t kBufferBase = 2ull << 20;
constexpr std::uint64_t kBufferBytes = 16ull << 20;
constexpr std::uint64_t kDramBytes = 20ull << 20;

volatile std::uint64_t g_eccSink = 0;

/**
 * The traced run's FlashBackend decorator: sits between the FTL and
 * the controller (or the Ssd), charges submit() to the core layer and
 * the completion it hands back to the FTL layer, and records per-op
 * counts and simulated waits. It forwards everything else unchanged,
 * so the simulation it wraps runs exactly as without it.
 */
class TimedBackend final : public core::FlashBackend
{
  public:
    TimedBackend(core::FlashBackend &inner, LayerClock &clock,
                 FlashOpStats &stats, const core::EccEngine &ecc)
        : inner_(inner), clock_(clock), stats_(stats), ecc_(ecc)
    {
    }

    void
    submit(core::FlashRequest req) override
    {
        LayerClock::Scope scope(&clock_, Layer::Core);
        req.onComplete = [this, kind = req.kind, bytes = req.dataBytes,
                          cb = std::move(req.onComplete)](
                             core::OpResult r) {
            record(kind, bytes, r);
            LayerClock::Scope ftl_scope(&clock_, Layer::Ftl);
            if (cb)
                cb(r);
        };
        inner_.submit(std::move(req));
    }

    std::uint32_t backendChipCount() const override
    {
        return inner_.backendChipCount();
    }
    const nand::Geometry &backendGeometry() const override
    {
        return inner_.backendGeometry();
    }
    dram::DramBuffer &backendDram() override { return inner_.backendDram(); }
    std::string backendChipName(std::uint32_t chip) const override
    {
        return inner_.backendChipName(chip);
    }
    fault::FaultEngine &backendFaults() override
    {
        return inner_.backendFaults();
    }

  private:
    void
    record(core::FlashOpKind kind, std::uint32_t bytes,
           const core::OpResult &r)
    {
        if (!clock_.measuring())
            return;
        using K = core::FlashOpKind;
        // A request without a length moves the whole page.
        const std::uint32_t cw = ecc_.codewordsFor(
            bytes ? bytes : inner_.backendGeometry().pageDataBytes);
        switch (kind) {
          case K::Read:
          case K::PslcRead:
            ++stats_.n.reads;
            stats_.n.decodeCw += std::uint64_t(cw) * (1 + r.retries);
            stats_.n.readRetries += r.retries;
            break;
          case K::Program:
          case K::PslcProgram:
            ++stats_.n.programs;
            stats_.n.encodeCw += cw;
            break;
          case K::Erase:
          case K::SlcErase:
            ++stats_.n.erases;
            break;
          case K::OobRead:
            ++stats_.n.oobReads;
            break;
        }
        stats_.queueWaitUs.push_back(
            static_cast<double>(r.startTick - r.submitTick) / kTicksPerUs);
        stats_.serviceUs.push_back(
            static_cast<double>(r.doneTick - r.startTick) / kTicksPerUs);
    }

    core::FlashBackend &inner_;
    LayerClock &clock_;
    FlashOpStats &stats_;
    const core::EccEngine &ecc_;
};

std::unique_ptr<core::ChannelController>
makeController(Flavour f, EventQueue &eq, core::ChannelSystem &sys)
{
    core::SoftControllerConfig soft;
    soft.cpuMhz = 1000;
    switch (f) {
      case Flavour::Coro:
        return std::make_unique<core::CoroController>(eq, "ctrl", sys,
                                                      soft);
      case Flavour::Rtos:
        return std::make_unique<core::RtosController>(eq, "ctrl", sys,
                                                      soft);
      case Flavour::Hw:
        break;
    }
    return std::make_unique<core::HwController>(eq, "ctrl", sys, false);
}

core::ChannelConfig
channelConfig(const DeviceSpec &spec)
{
    core::ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    if (spec.pagesPerBlock)
        cfg.package.geometry.pagesPerBlock = spec.pagesPerBlock;
    if (spec.blocksPerPlane)
        cfg.package.geometry.blocksPerPlane = spec.blocksPerPlane;
    cfg.chips = spec.ways;
    cfg.rateMT = 200;
    cfg.seed = 5;
    cfg.dramBytes = kDramBytes;
    return cfg;
}

} // namespace

struct Device::Impl
{
    DeviceSpec spec;
    LayerClock *clock;
    FlashOpStats stats;

    // Declaration order is teardown order reversed: the host front end
    // goes first, the event queue last.
    EventQueue eq;
    std::unique_ptr<core::ChannelSystem> sys;
    std::unique_ptr<core::ChannelController> ctrl;
    std::unique_ptr<ssd::Ssd> ssd;
    core::FlashBackend *backend = nullptr;
    std::unique_ptr<TimedBackend> timed;
    std::unique_ptr<ftl::PageFtl> ftl;
    std::unique_ptr<host::Hic> hic;
    std::unique_ptr<host::nvme::NvmeFrontEnd> fe;

    std::vector<core::ChannelSystem *> channels;
    std::vector<core::ChannelController *> controllers;

    Impl(const DeviceSpec &s, LayerClock *c) : spec(s), clock(c)
    {
        if (spec.channels == 0) {
            sys = std::make_unique<core::ChannelSystem>(
                eq, "ssd", channelConfig(spec));
            ctrl = makeController(spec.flavour, eq, *sys);
            backend = ctrl.get();
            channels.push_back(sys.get());
            controllers.push_back(ctrl.get());
        } else {
            ssd::SsdConfig cfg;
            cfg.channels = spec.channels;
            cfg.channel = channelConfig(spec);
            cfg.flavor = spec.flavour == Flavour::Hw
                             ? "hw-async"
                             : flavourName(spec.flavour);
            cfg.cpuMhz = 1000;
            cfg.dramBytes = kDramBytes;
            ssd = std::make_unique<ssd::Ssd>(eq, "ssd", cfg);
            backend = ssd.get();
            for (std::uint32_t ch = 0; ch < spec.channels; ++ch) {
                channels.push_back(&ssd->channelSystem(ch));
                controllers.push_back(&ssd->controller(ch));
            }
        }
        if (clock) {
            timed = std::make_unique<TimedBackend>(
                *backend, *clock, stats, channels.front()->ecc());
        }
        buildFtl();
    }

    void
    buildFtl()
    {
        ftl::FtlConfig fcfg;
        fcfg.blocksPerChip = spec.ftlBlocksPerChip;
        fcfg.overprovision = spec.overprovision;
        fcfg.writeBufferPages = spec.writeBufferPages;
        fcfg.wearSpreadThreshold = spec.wearSpreadThreshold;
        core::FlashBackend &b =
            timed ? static_cast<core::FlashBackend &>(*timed) : *backend;
        ftl = std::make_unique<ftl::PageFtl>(eq, "ftl", b, fcfg);
        if (spec.queuePairs == 0)
            return;
        host::HicConfig hcfg;
        hcfg.maxInflight = 64;
        hic = std::make_unique<host::Hic>(eq, "hic", *ftl, hcfg);
        host::nvme::NvmeConfig ncfg;
        ncfg.queuePairs = spec.queuePairs;
        ncfg.maxInflight = 64;
        ncfg.dramBase = kRingBase;
        fe = std::make_unique<host::nvme::NvmeFrontEnd>(eq, "nvme", *hic,
                                                        ncfg);
    }

    /** The benchmark's callback, charged to the benchmark when traced. */
    Done
    wrap(Done cb)
    {
        if (!clock)
            return cb;
        return [c = clock, cb = std::move(cb)](bool ok) {
            LayerClock::Scope scope(c, Layer::Bench);
            cb(ok);
        };
    }

    template <typename F>
    void
    forEachLun(F &&fn) const
    {
        for (core::ChannelSystem *s : channels)
            for (std::uint32_t c = 0; c < s->chipCount(); ++c)
                fn(s->lun(c));
    }
};

Device::Device(const DeviceSpec &spec, LayerClock *clock)
    : impl_(std::make_unique<Impl>(spec, clock))
{
}

Device::~Device() = default;

std::uint32_t Device::pageBytes() const { return impl_->ftl->pageBytes(); }

std::uint64_t
Device::logicalPages() const
{
    return impl_->ftl->logicalPages();
}

std::uint32_t
Device::channelCount() const
{
    return static_cast<std::uint32_t>(impl_->channels.size());
}

std::uint32_t
Device::sectorBytes() const
{
    return impl_->hic ? impl_->hic->sectorBytes() : pageBytes();
}

std::uint32_t
Device::sectorsPerPage() const
{
    return impl_->hic ? impl_->hic->sectorsPerPage() : 1;
}

std::uint64_t Device::bufferBase() const { return kBufferBase; }
std::uint64_t Device::bufferBytes() const { return kBufferBytes; }

void
Device::stage(std::uint64_t addr, std::span<const std::uint8_t> data)
{
    impl_->backend->backendDram().write(addr, data);
}

void
Device::fetch(std::uint64_t addr, std::span<std::uint8_t> out)
{
    impl_->backend->backendDram().read(addr, out);
}

void
Device::read(std::uint64_t lpn, std::uint64_t addr, Done cb)
{
    LayerClock::Scope scope(impl_->clock, Layer::Ftl);
    impl_->ftl->readPage(lpn, addr, impl_->wrap(std::move(cb)));
}

void
Device::write(std::uint64_t lpn, std::uint64_t addr, Done cb)
{
    LayerClock::Scope scope(impl_->clock, Layer::Ftl);
    impl_->ftl->writePage(lpn, addr, impl_->wrap(std::move(cb)));
}

bool
Device::submit(const HostCmd &cmd, Done cb)
{
    host::nvme::NvmeCommand c;
    c.write = cmd.write;
    c.slba = cmd.slba;
    c.sectors = cmd.sectors;
    c.prp = cmd.prp;
    c.tenant = cmd.tenant;
    LayerClock::Scope scope(impl_->clock, Layer::Host);
    return impl_->fe->trySubmit(cmd.queue, c, impl_->wrap(std::move(cb)));
}

void
Device::onSqSpace(std::uint32_t qid, std::function<void()> fn)
{
    impl_->fe->onSqSpace(qid, std::move(fn));
}

void
Device::at(Tick when, std::function<void()> fn)
{
    impl_->eq.schedule(when, std::move(fn), "e2e.generator");
}

Tick Device::now() const { return impl_->eq.now(); }
void Device::run() { impl_->eq.run(); }
bool Device::step() { return impl_->eq.step(); }

bool
Device::mount()
{
    bool ok = false;
    {
        LayerClock::Scope scope(impl_->clock, Layer::Ftl);
        impl_->ftl->mount([&ok](bool o) { ok = o; });
    }
    impl_->eq.run();
    return ok;
}

void
Device::restartFtl()
{
    impl_->fe.reset();
    impl_->hic.reset();
    impl_->ftl.reset();
    impl_->buildFtl();
}

void
Device::powerCut()
{
    impl_->forEachLun([](nand::Lun &l) { l.powerCut(); });
}

void
Device::adoptCells(const Device &other)
{
    auto &mine = impl_->channels;
    auto &theirs = other.impl_->channels;
    for (std::size_t ch = 0; ch < mine.size(); ++ch)
        for (std::uint32_t c = 0; c < mine[ch]->chipCount(); ++c)
            mine[ch]->lun(c).array().copyStateFrom(
                theirs[ch]->lun(c).array());
}

std::optional<std::uint64_t>
Device::where(std::uint64_t lpn) const
{
    const auto p = impl_->ftl->mappedPpa(lpn);
    if (!p)
        return std::nullopt;
    return (std::uint64_t(p->chip) << 40) | (std::uint64_t(p->block) << 20) |
           p->page;
}

Counters
Device::counters() const
{
    const Impl &d = *impl_;
    const Tick now = d.eq.now();
    Counters k{};
    k[ctr::events] = d.eq.firedCount();
    k[ctr::now] = now;
    auto meterFj = [now](obs::power::Meter &m) {
        return m.activeFj() + m.idleFjAt(now);
    };
    for (core::ChannelSystem *s : d.channels) {
        chan::ChannelBus &bus = s->bus();
        k[ctr::busBusy] += bus.busyTicks();
        k[ctr::busSegments] += bus.segmentsIssued();
        k[ctr::busBytes] += bus.dataBytesIn() + bus.dataBytesOut();
        k[ctr::fjBus] += meterFj(bus.powerMeter());
        k[ctr::txns] += s->exec().transactionsExecuted();
    }
    d.forEachLun([&](nand::Lun &l) {
        k[ctr::lunReads] += l.completedReads();
        k[ctr::lunPrograms] += l.completedPrograms();
        k[ctr::lunErases] += l.completedErases();
        k[ctr::fjLun] += meterFj(l.powerMeter());
    });
    for (core::ChannelController *c : d.controllers) {
        cpu::CpuModel *cpu = nullptr;
        if (auto *coro = dynamic_cast<core::CoroController *>(c)) {
            cpu = &coro->cpu();
            k[ctr::schedPasses] += coro->runtime().schedulerPasses();
        } else if (auto *rtos = dynamic_cast<core::RtosController *>(c)) {
            cpu = &rtos->cpu();
            k[ctr::schedPasses] += rtos->runtime().schedulerPasses();
        }
        if (cpu) {
            k[ctr::cpuBusy] += cpu->busyTicks();
            k[ctr::fjCpu] += meterFj(cpu->powerMeter());
        }
    }
    dram::DramBuffer &dram = d.backend->backendDram();
    k[ctr::dramBytes] = dram.bytesRead() + dram.bytesWritten();
    k[ctr::fjDram] = meterFj(dram.powerMeter());
    k[ctr::fjTotal] =
        obs::power::PowerModel::instance().grandTotalFjAt(now);

    const ftl::PageFtl &f = *d.ftl;
    k[ctr::ftlHostWrites] = f.hostWrites();
    k[ctr::gcMoves] = f.gcPageMoves();
    k[ctr::ftlErases] = f.erasesIssued();
    k[ctr::mountPages] = f.mountPagesScanned();
    k[ctr::tornPages] = f.mountTornPages();
    if (d.hic) {
        k[ctr::rmw] = d.hic->rmwCount();
        k[ctr::interrupts] = d.fe->interrupts();
        k[ctr::doorbells] = d.fe->sqDoorbells() + d.fe->cqDoorbells();
        k[ctr::hicStalls] = d.fe->hicStalls();
    }
    return k;
}

const FlashOpStats &Device::opStats() const { return impl_->stats; }

EccCost
measureEccCost(std::uint32_t page_bytes, std::uint64_t seed)
{
    const core::EccEngine ecc{core::ChannelConfig{}.ecc};
    std::vector<std::uint8_t> data(page_bytes);
    std::uint64_t s = seed | 1;
    for (auto &b : data) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        b = static_cast<std::uint8_t>(s);
    }
    EccCost cost;
    const std::uint32_t cw = ecc.codewordsFor(page_bytes);
    std::vector<std::uint8_t> image = ecc.encode(data);

    // Median of several batches of a fixed size: each call is a few
    // microseconds, so one batch is well above the clock's resolution.
    constexpr int kBatches = 7, kCalls = 64;
    auto median_ns_per_cw = [&](auto &&call) {
        std::vector<double> v;
        for (int b = 0; b < kBatches; ++b) {
            const std::int64_t t0 = LayerClock::nowNs();
            for (int i = 0; i < kCalls; ++i)
                call();
            v.push_back(static_cast<double>(LayerClock::nowNs() - t0) /
                        kCalls / cw);
        }
        std::nth_element(v.begin(), v.begin() + kBatches / 2, v.end());
        return v[kBatches / 2];
    };
    std::uint64_t sink = 0;
    cost.encodeNsPerCw = median_ns_per_cw([&] {
        sink += ecc.encode(data).back();
    });
    cost.decodeNsPerCw = median_ns_per_cw([&] {
        sink += ecc.decode(image, 0, {}).failedCodewords;
    });
    cost.extractNsPerCw = median_ns_per_cw([&] {
        sink += ecc.extractData(image, page_bytes).back();
    });
    g_eccSink = sink; // keeps the timed calls from being optimised out
    return cost;
}

void
enablePowerModel()
{
    obs::power::PowerModel::instance().enable();
}

} // namespace e2e
