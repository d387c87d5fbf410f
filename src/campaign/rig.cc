#include "campaign/rig.hh"

#include "ssd/ssd.hh"

namespace babol::campaign {

namespace {

core::ChannelConfig
rigChannel(std::uint32_t chips)
{
    core::ChannelConfig cfg;
    cfg.package = nand::hynixPackage();
    cfg.package.geometry.pagesPerBlock = 8;
    cfg.package.geometry.blocksPerPlane = 32;
    cfg.chips = chips;
    cfg.rateMT = 200;
    return cfg;
}

/** The rig's controller: the named flavour with a read-retry budget
 *  of four, which read-fault campaigns need and clean runs never use. */
std::unique_ptr<core::ChannelController>
rigController(EventQueue &eq, const std::string &flavor,
              core::ChannelSystem &sys)
{
    core::SoftControllerConfig soft;
    soft.maxReadRetries = 4;
    return ssd::makeController(eq, flavor, "ctrl", sys, soft);
}

/** What each Verdict means, in enum order. */
constexpr const char *kVerdictText[] = {"valid", "no valid stamp", "stale",
                                        "never issued", "payload corrupt"};

/** Run the queue dry; a @p what whose callback never fired is a
 *  simulator bug, not a failed operation. */
void
drain(EventQueue &eq, const bool &done, const char *what)
{
    eq.run();
    if (!done)
        panic("campaign rig: %s never completed", what);
}

/** Read @p lpn into @p addr and run the queue dry; true on success. */
bool
readNow(EventQueue &eq, ftl::PageFtl &ftl, std::uint64_t lpn,
        std::uint64_t addr)
{
    bool ok = false, done = false;
    ftl.readPage(lpn, addr, [&](bool o) {
        ok = o;
        done = true;
    });
    drain(eq, done, "read");
    return ok;
}

} // namespace

Rig::Rig(std::uint32_t chips, const ftl::FtlConfig &fcfg,
         const std::string &flavor)
    : sys(eq, "ssd", rigChannel(chips)),
      ctrl(rigController(eq, flavor, sys)),
      ftl(eq, "ftl", *ctrl, fcfg)
{
}

ftl::FtlConfig
Rig::smallFtl()
{
    ftl::FtlConfig cfg;
    cfg.blocksPerChip = 8;
    cfg.overprovision = 0.25;
    return cfg;
}

void
Rig::stage(std::uint64_t lpn, std::uint64_t gen)
{
    std::vector<std::uint8_t> page(ftl.pageBytes());
    stampPattern(page, lpn, gen);
    ctrl->backendDram().write(kHostBase, page);
}

bool
Rig::write(std::uint64_t lpn, std::uint64_t gen)
{
    stage(lpn, gen);
    bool ok = false, done = false;
    ftl.writePage(lpn, kHostBase, [&](bool o) {
        ok = o;
        done = true;
    });
    drain(eq, done, "write");
    return ok;
}

bool
Rig::read(std::uint64_t lpn)
{
    return readNow(eq, ftl, lpn, kHostBase);
}

bool
Rig::readsBackAs(std::uint64_t lpn, std::uint64_t gen)
{
    if (!read(lpn))
        return false;
    std::vector<std::uint8_t> got(ftl.pageBytes()), want(ftl.pageBytes());
    ctrl->backendDram().read(kHostBase, got);
    stampPattern(want, lpn, gen);
    return got == want;
}

bool
Rig::mount()
{
    bool mounted = false, done = false;
    ftl.mount([&](bool ok) {
        mounted = ok;
        done = true;
    });
    drain(eq, done, "mount");
    return mounted;
}

void
Rig::powerCut()
{
    for (std::uint32_t c = 0; c < sys.chipCount(); ++c)
        sys.lun(c).powerCut();
}

void
Rig::transplantInto(Rig &next)
{
    for (std::uint32_t c = 0; c < sys.chipCount(); ++c)
        next.sys.lun(c).array().copyStateFrom(sys.lun(c).array());
}

StampedWorkload::StampedWorkload(EventQueue &eq, ftl::PageFtl &ftl,
                                 Ledger &led, std::uint64_t ops,
                                 std::uint64_t seed)
    : eq_(eq), ftl_(ftl), led_(led), total_(ops), rng_(seed),
      page_(ftl.pageBytes())
{
}

void
StampedWorkload::run()
{
    for (std::uint32_t q = 0; q < kQueueDepth; ++q)
        issue(q);
    while (!cut_ && eq_.step()) {
    }
}

void
StampedWorkload::issue(std::uint32_t slot)
{
    if (cut_)
        return;
    if (ops_ >= total_) {
        if (completed_ == ops_ && onDrain)
            onDrain();
        return;
    }
    ++ops_;
    const std::uint64_t addr = kHostBase + std::uint64_t(slot) * page_.size();
    const std::uint64_t lpn = rng_.uniform(0, led_.extent() - 1);
    dram::DramBuffer &dram = ftl_.backend().backendDram();

    if (readEvery != 0 && ops_ % readEvery == 0 && led_.ackedGen[lpn] != 0) {
        ++reads_;
        const std::uint64_t floor = led_.ackedGen[lpn];
        ftl_.readPage(lpn, addr, [this, &dram, slot, lpn, addr,
                                  floor](bool ok) {
            ++completed_;
            if (!ok) {
                ++readFailures_;
            } else {
                std::vector<std::uint8_t> got(page_.size());
                dram.read(addr, got);
                std::uint64_t gen = 0;
                if (led_.check(got, lpn, floor, &gen) != Verdict::Valid)
                    ++readCorrupt_;
            }
            issue(slot);
        });
        return;
    }

    const std::uint64_t gen = led_.issue(lpn);
    stampPattern(page_, lpn, gen);
    dram.write(addr, page_);
    ftl_.writePage(lpn, addr, [this, slot, lpn, gen](bool ok) {
        ++completed_;
        if (!ok)
            fatal("stamped workload: write lpn %llu failed",
                  static_cast<unsigned long long>(lpn));
        led_.ack(lpn, gen);
        if (onAck && onAck(led_.acked)) {
            cut_ = true;
            return;
        }
        issue(slot);
    });
}

ReadBack
readBack(EventQueue &eq, ftl::PageFtl &ftl, const Ledger &led)
{
    ReadBack rb;
    rb.gens.assign(led.extent(), 0);
    dram::DramBuffer &dram = ftl.backend().backendDram();
    std::vector<std::uint8_t> got(ftl.pageBytes());

    for (std::uint64_t lpn = 0; lpn < led.extent(); ++lpn) {
        const unsigned long long acked = led.ackedGen[lpn];
        const auto n = static_cast<unsigned long long>(lpn);
        if (!ftl.isMapped(lpn)) {
            if (acked != 0) {
                ++rb.lost;
                rb.violations.push_back(
                    strfmt("lpn %llu (acked gen %llu) unmapped", n, acked));
            }
            continue;
        }
        ++rb.mapped;
        if (!readNow(eq, ftl, lpn, kHostBase)) {
            ++rb.lost;
            rb.violations.push_back(strfmt(
                "lpn %llu (acked gen %llu) unreadable after campaign", n,
                acked));
            continue;
        }
        dram.read(kHostBase, got);
        std::uint64_t gen = 0;
        const Verdict v = led.check(got, lpn, &gen);
        rb.gens[lpn] = gen;
        if (v == Verdict::Valid) {
            ++rb.verified;
            continue;
        }
        ++(v == Verdict::Stale ? rb.stale : rb.corrupt);
        rb.violations.push_back(
            strfmt("lpn %llu (acked gen %llu): %s (gen %llu)", n, acked,
                   kVerdictText[static_cast<int>(v)],
                   static_cast<unsigned long long>(gen)));
    }
    return rb;
}

} // namespace babol::campaign
