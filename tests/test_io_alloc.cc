/**
 * @file
 * Allocation lock-in for the IO datapath.
 *
 * Once a channel has warmed up (its queues, pools and page buffers have
 * grown to the depth the workload needs), erases, page programs and
 * page reads — with the status polls inside them — must not touch the
 * heap, in any controller flavour. The test replaces the global
 * operator new to count allocations, so it is an executable of its own.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/channel_system.hh"
#include "obs/sim_context.hh"
#include "ssd/ssd.hh"

// The replacements below pair malloc with free; gcc pairs operator new
// with operator delete across inlined call sites and misreads that as a
// mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::uint64_t g_allocs = 0;
}

void *
operator new(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return operator new(n, tag);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace babol;
using namespace babol::core;

namespace {

/**
 * One channel behind one controller flavour, driven closed-loop at a
 * fixed queue depth through FlashBackend::submit.
 */
class IoRig
{
  public:
    static constexpr std::uint32_t kChips = 4;
    static constexpr std::uint32_t kQueueDepth = 8;

    explicit IoRig(const char *flavor)
    {
        // The lock-in covers the datapath itself: the conformance
        // auditor (armed by BABOL_AUDIT in the audit CI stage) builds
        // its per-segment views on the heap by design.
        ctx_.audit.disarm();
        ChannelConfig cfg;
        cfg.package = nand::hynixPackage();
        cfg.chips = kChips;
        sys_ = std::make_unique<ChannelSystem>(eq_, "ssd", cfg);
        ctrl_ = ssd::makeController(eq_, flavor, "ctrl", *sys_);
        pageBytes_ = cfg.package.geometry.pageDataBytes;
        std::vector<std::uint8_t> page(pageBytes_);
        for (std::size_t i = 0; i < page.size(); ++i)
            page[i] = static_cast<std::uint8_t>(i * 7 + 3);
        sys_->dram().write(0, page);
    }

    /**
     * Erase @p block on every chip, program @p pages of its pages (in
     * page order), then read them back @p reads times over; every op
     * must succeed.
     */
    void
    run(std::uint32_t block, std::uint32_t pages, std::uint32_t reads)
    {
        ops_.clear();
        for (std::uint32_t c = 0; c < kChips; ++c)
            ops_.push_back({FlashOpKind::Erase, c, block, 0});
        for (std::uint32_t p = 0; p < pages; ++p)
            for (std::uint32_t c = 0; c < kChips; ++c)
                ops_.push_back({FlashOpKind::Program, c, block, p});
        for (std::uint32_t i = 0; i < reads; ++i) {
            std::uint32_t slot = i % (pages * kChips);
            ops_.push_back({FlashOpKind::Read, slot % kChips, block,
                            slot / kChips});
        }
        next_ = 0;
        done_ = 0;
        // Each chip admits its requests in submission order, so its
        // erase, programs and reads run in the order listed.
        for (std::uint32_t i = 0; i < kQueueDepth; ++i)
            issueNext();
        eq_.run();
        ASSERT_EQ(done_, ops_.size());
        ASSERT_EQ(failed_, 0u);
    }

  private:
    struct Op
    {
        FlashOpKind kind;
        std::uint32_t chip, block, page;
    };

    void
    issueNext()
    {
        if (next_ >= ops_.size())
            return;
        const Op &op = ops_[next_++];
        FlashRequest req;
        req.kind = op.kind;
        req.chip = op.chip;
        req.row = {0, op.block, op.page};
        req.dramAddr = op.kind == FlashOpKind::Read ? pageBytes_ : 0;
        req.onComplete = [this](OpResult r) {
            ++done_;
            if (!r.ok)
                ++failed_;
            issueNext();
        };
        ctrl_->submit(std::move(req));
    }

    SimContext ctx_;
    EventQueue eq_{ctx_};
    std::unique_ptr<ChannelSystem> sys_;
    std::unique_ptr<ChannelController> ctrl_;
    std::uint32_t pageBytes_ = 0;
    std::vector<Op> ops_;
    std::size_t next_ = 0;
    std::size_t done_ = 0;
    std::size_t failed_ = 0;
};

class IoAlloc : public testing::TestWithParam<const char *>
{};

TEST_P(IoAlloc, SteadyStateReadsAndProgramsDoNotAllocate)
{
    IoRig rig(GetParam());
    // Warm-up: the erase / 64 programs per chip / 1 000 reads cycle, four
    // times. The second cycle is the first to erase programmed pages,
    // whose storage the array then recycles. Four cycles also leave the
    // controller's latency distribution (which keeps its samples, growing
    // by doubling) with room for the measured cycle's 1 260 samples.
    for (int i = 0; i < 4; ++i)
        rig.run(0, 64, 1000);

    // Measured: the same cycle again.
    const std::uint64_t before = g_allocs;
    rig.run(0, 64, 1000);
    EXPECT_EQ(g_allocs - before, 0u)
        << "heap allocations on the " << GetParam() << " IO path";
}

INSTANTIATE_TEST_SUITE_P(Flavors, IoAlloc,
                         testing::Values("coro", "rtos", "hw-async"),
                         [](const testing::TestParamInfo<const char *> &i) {
                             std::string s = i.param;
                             s.erase(std::remove(s.begin(), s.end(), '-'),
                                     s.end());
                             return s;
                         });

} // namespace
