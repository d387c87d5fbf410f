/**
 * @file
 * Fleet mode, the simulator's parallel tier: deterministic member
 * seeds, members isolated in their own SimContexts with results that
 * do not depend on the thread count, and the lowest failing member's
 * exception rethrown on the caller.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "obs/sim_context.hh"
#include "sim/fleet.hh"

using namespace babol;

TEST(FleetEngine, MemberSeedsAreDeterministicAndDecorrelated)
{
    const std::uint64_t a0 = sim::FleetEngine::memberSeed(7, 0);
    const std::uint64_t a1 = sim::FleetEngine::memberSeed(7, 1);
    EXPECT_EQ(a0, sim::FleetEngine::memberSeed(7, 0));
    EXPECT_NE(a0, a1);
    EXPECT_NE(a0, sim::FleetEngine::memberSeed(8, 0));
}

TEST(FleetEngine, MembersRunIsolatedAndThreadCountInvariant)
{
    auto runFleet = [](std::uint32_t threads) {
        std::vector<std::uint64_t> sums(4, 0);
        // Not vector<bool>: members write concurrently and packed bits
        // would share a word.
        std::vector<char> isolated(4, 0);
        sim::FleetEngine::run(4, threads, [&](std::size_t m) {
            SimContext ctx(SimContext::processDefault(),
                           static_cast<std::uint32_t>(m));
            EventQueue eq(ctx);
            const std::uint64_t seed = sim::FleetEngine::memberSeed(7, m);
            std::uint64_t sum = 0;
            obs::MetricsGroup group(eq.context().metrics, "member");
            group.value("sum", [&sum] { return sum; });
            for (int i = 0; i < 100; ++i) {
                eq.scheduleIn(Tick(i + 1),
                              [&sum, seed, i] {
                                  sum = sum * 31 + seed + std::uint64_t(i);
                              },
                              "acc");
            }
            eq.run();
            sums[m] = sum;
            // The member's metric lives in its own registry only, and
            // its spans carry its own namespace.
            const std::uint64_t span = eq.context().trace.nextSpanId();
            isolated[m] =
                ctx.metrics.snapshot().scalar("member.sum") == sum &&
                !SimContext::processDefault().metrics.snapshot().findScalar(
                    "member.sum") &&
                (span >> obs::kSpanMemberShift) == m;
        });
        for (char iso : isolated)
            EXPECT_TRUE(iso);
        return sums;
    };
    auto one = runFleet(1);
    auto four = runFleet(4);
    EXPECT_EQ(one, four);
    EXPECT_NE(one[0], one[1]);
}

TEST(FleetEngine, LowestFailingMemberWins)
{
    try {
        sim::FleetEngine::run(4, 2, [&](std::size_t m) {
            if (m == 1)
                throw std::runtime_error("member-1");
            if (m == 3)
                throw std::runtime_error("member-3");
        });
        FAIL() << "expected a rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "member-1");
    }
}
