/**
 * @file
 * Scheduler policy tests: transaction ordering, round-robin fairness
 * bounds, priority semantics, admission filtering, the per-chip
 * policies' cyclic order against a reference walk, chip range checks,
 * and factories.
 */

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <map>
#include <random>
#include <set>

#include "core/sched.hh"

using namespace babol;
using namespace babol::core;

namespace {

/** Transactions parked the way the runtime parks them; the schedulers
 *  see only their TxnRefs. */
struct Parked
{
    TxnSlots slots;

    TxnRef
    txn(std::uint32_t chip, int priority = 0, const char *label = "t")
    {
        Transaction t(chip, label);
        t.priority = priority;
        return slots.park(std::move(t));
    }

    obs::Label
    label(std::optional<TxnRef> ref)
    {
        EXPECT_TRUE(ref.has_value());
        return ref ? slots.get(*ref).label : obs::Label("<none>");
    }
};

FlashRequest
req(std::uint32_t chip, int priority = 0)
{
    FlashRequest r;
    r.chip = chip;
    r.priority = priority;
    return r;
}

TEST(TxnSched, FifoPreservesOrder)
{
    Parked p;
    FifoTxnScheduler sched;
    sched.enqueue(p.txn(2, 0, "a"));
    sched.enqueue(p.txn(0, 9, "b"));
    sched.enqueue(p.txn(1, 0, "c"));
    EXPECT_EQ(sched.pendingCount(), 3u);
    EXPECT_EQ(p.label(sched.pickNext()), "a");
    EXPECT_EQ(p.label(sched.pickNext()), "b");
    EXPECT_EQ(p.label(sched.pickNext()), "c");
    EXPECT_FALSE(sched.pickNext().has_value());
}

TEST(TxnSched, RoundRobinAlternatesChips)
{
    Parked p;
    RoundRobinTxnScheduler sched;
    for (int i = 0; i < 3; ++i) {
        sched.enqueue(p.txn(0, 0, "c0"));
        sched.enqueue(p.txn(5, 0, "c5"));
    }
    // Picks must alternate between the two chips.
    std::vector<std::uint32_t> order;
    while (auto t = sched.pickNext())
        order.push_back(t->chip);
    ASSERT_EQ(order.size(), 6u);
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_NE(order[i], order[i - 1]);
}

TEST(TxnSched, RoundRobinFairnessBound)
{
    // Property (DESIGN.md invariant): with k chips each holding work,
    // no chip waits more than k-1 picks between its turns.
    Parked p;
    RoundRobinTxnScheduler sched;
    const std::uint32_t chips = 7;
    for (int round = 0; round < 5; ++round)
        for (std::uint32_t c = 0; c < chips; ++c)
            sched.enqueue(p.txn(c));

    std::map<std::uint32_t, int> last_seen;
    int pick = 0;
    while (auto t = sched.pickNext()) {
        if (last_seen.count(t->chip)) {
            EXPECT_LE(pick - last_seen[t->chip], static_cast<int>(chips));
        }
        last_seen[t->chip] = pick;
        ++pick;
    }
    EXPECT_EQ(pick, 35);
}

TEST(TxnSched, PriorityPicksHighestFirstFifoWithin)
{
    Parked p;
    PriorityTxnScheduler sched;
    sched.enqueue(p.txn(0, 1, "low-a"));
    sched.enqueue(p.txn(0, 5, "high-a"));
    sched.enqueue(p.txn(0, 1, "low-b"));
    sched.enqueue(p.txn(0, 5, "high-b"));
    EXPECT_EQ(p.label(sched.pickNext()), "high-a");
    EXPECT_EQ(p.label(sched.pickNext()), "high-b");
    EXPECT_EQ(p.label(sched.pickNext()), "low-a");
    EXPECT_EQ(p.label(sched.pickNext()), "low-b");
}

TEST(TaskSched, FifoSkipsBusyChips)
{
    FifoTaskScheduler sched;
    sched.submit(req(0));
    sched.submit(req(1));
    const ChipMask only_chip1 = ~ChipMask{1u << 1}; // others busy
    auto r = sched.admitNext(only_chip1);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->chip, 1u);
    EXPECT_EQ(sched.pendingCount(), 1u);
    // Nothing admissible now.
    EXPECT_FALSE(sched.admitNext(only_chip1).has_value());
}

TEST(TaskSched, FairRotatesAcrossChips)
{
    FairTaskScheduler sched;
    for (int i = 0; i < 2; ++i)
        for (std::uint32_t c : {0u, 1u, 2u})
            sched.submit(req(c));
    const ChipMask all_free = 0;
    std::vector<std::uint32_t> order;
    while (auto r = sched.admitNext(all_free))
        order.push_back(r->chip);
    ASSERT_EQ(order.size(), 6u);
    // First three admissions cover all three chips.
    std::set<std::uint32_t> first(order.begin(), order.begin() + 3);
    EXPECT_EQ(first.size(), 3u);
}

TEST(TaskSched, PriorityAdmitsUrgentFirst)
{
    PriorityTaskScheduler sched;
    sched.submit(req(0, 0));
    sched.submit(req(1, 10));
    const ChipMask all_free = 0;
    EXPECT_EQ(sched.admitNext(all_free)->chip, 1u);
    EXPECT_EQ(sched.admitNext(all_free)->chip, 0u);
}

TEST(TaskSched, PriorityFallsBackToAdmissibleLowerPriority)
{
    PriorityTaskScheduler sched;
    sched.submit(req(0, 10)); // urgent but chip 0 busy
    sched.submit(req(1, 1));
    const ChipMask only_chip1 = ~ChipMask{1u << 1};
    EXPECT_EQ(sched.admitNext(only_chip1)->chip, 1u);
}

/**
 * Reference for the per-chip policies: 33 FIFOs walked as a cycle,
 * starting after the last-served chip, skipping busy chips. Items are
 * ids, so a mismatch names the exact pick.
 */
struct CyclicWalk
{
    std::array<std::deque<std::uint32_t>, 33> queues;
    std::uint32_t cursor = 0;
    std::size_t size = 0;

    void
    push(std::uint32_t chip, std::uint32_t id)
    {
        queues[chip].push_back(id);
        ++size;
    }

    std::optional<std::uint32_t>
    pick(ChipMask busy)
    {
        for (std::uint32_t step = 0; step < 33; ++step) {
            const std::uint32_t chip = (cursor + 1 + step) % 33;
            if (!queues[chip].empty() && !((busy >> chip) & 1)) {
                const std::uint32_t id = queues[chip].front();
                queues[chip].pop_front();
                --size;
                cursor = chip;
                return id;
            }
        }
        return std::nullopt;
    }
};

/**
 * Drive @p enqueue / @p pick and the reference walk through the same
 * seeded interleaving of enqueues, picks and busy masks; every pick must
 * return the reference's id and @p pending must track the reference's
 * size. Chips near both ends of the cycle are favoured so picks keep
 * wrapping past chips 31 and 32 to chip 0.
 */
template <typename Enqueue, typename Pick, typename Pending>
void
matchesCyclicWalk(std::uint64_t seed, bool random_busy, Enqueue enqueue,
                  Pick pick, Pending pending)
{
    std::mt19937_64 rng(seed);
    CyclicWalk ref;
    std::uint32_t next_id = 0;
    std::uint32_t picks = 0;
    std::uint32_t wraps_after_31 = 0;
    for (int step = 0; step < 20000; ++step) {
        if (rng() % 16 < 9) {
            const std::uint32_t chip =
                rng() % 2 ? std::array<std::uint32_t, 6>{0, 1, 2, 30, 31,
                                                         32}[rng() % 6]
                          : static_cast<std::uint32_t>(rng() % 33);
            enqueue(chip, next_id);
            ref.push(chip, next_id);
            ++next_id;
        } else {
            // Sparse random masks, all-free ones, and junk above bit 32
            // (which must be ignored).
            const ChipMask busy =
                random_busy && rng() % 4 ? rng() & rng() & rng() : 0;
            const std::uint32_t before = ref.cursor;
            const std::optional<std::uint32_t> want = ref.pick(busy);
            const std::optional<std::uint32_t> got = pick(busy);
            ASSERT_EQ(got, want) << "step " << step;
            if (want) {
                ++picks;
                if (before >= 31 && ref.cursor < before)
                    ++wraps_after_31;
            }
        }
        ASSERT_EQ(pending(), ref.size) << "step " << step;
    }
    EXPECT_GT(picks, 5000u);
    EXPECT_GT(wraps_after_31, 100u);
}

TEST(TxnSched, RoundRobinMatchesCyclicWalkProperty)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        RoundRobinTxnScheduler sched;
        matchesCyclicWalk(
            seed, false,
            [&](std::uint32_t chip, std::uint32_t id) {
                // The id rides in the slot index; the scheduler never
                // dereferences it.
                sched.enqueue(TxnRef{{id, 0}, chip, 0});
            },
            [&](ChipMask) -> std::optional<std::uint32_t> {
                const std::optional<TxnRef> t = sched.pickNext();
                if (!t)
                    return std::nullopt;
                return t->slot.index;
            },
            [&] { return sched.pendingCount(); });
    }
}

TEST(TaskSched, FairMatchesCyclicWalkProperty)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        FairTaskScheduler sched;
        matchesCyclicWalk(
            seed, true,
            [&](std::uint32_t chip, std::uint32_t id) {
                FlashRequest r = req(chip);
                r.dramAddr = id;
                sched.submit(std::move(r));
            },
            [&](ChipMask busy) -> std::optional<std::uint32_t> {
                const std::optional<FlashRequest> r = sched.admitNext(busy);
                if (!r)
                    return std::nullopt;
                return static_cast<std::uint32_t>(r->dramAddr);
            },
            [&] { return sched.pendingCount(); });
    }
}

TEST(SchedChipRange, OutOfRangeChipPanicsOnArrival)
{
    const std::uint32_t bad = kSchedChipSlots;
    for (const char *policy : {"fifo", "round-robin", "priority"}) {
        auto sched = makeTxnScheduler(policy);
        sched->enqueue(TxnRef{{0, 0}, bad - 1, 0});
        EXPECT_THROW(sched->enqueue(TxnRef{{1, 0}, bad, 0}), SimPanic)
            << policy;
        EXPECT_EQ(sched->pendingCount(), 1u) << policy;
    }
    for (const char *policy : {"fifo", "fair", "priority"}) {
        auto sched = makeTaskScheduler(policy);
        sched->submit(req(bad - 1));
        EXPECT_THROW(sched->submit(req(bad)), SimPanic) << policy;
        EXPECT_EQ(sched->pendingCount(), 1u) << policy;
    }
}

TEST(SchedFactories, KnownAndUnknownPolicies)
{
    EXPECT_EQ(std::string(makeTxnScheduler("fifo")->policyName()), "fifo");
    EXPECT_EQ(std::string(makeTxnScheduler("round-robin")->policyName()),
              "round-robin");
    EXPECT_EQ(std::string(makeTxnScheduler("priority")->policyName()),
              "priority");
    EXPECT_THROW(makeTxnScheduler("nope"), SimFatal);

    EXPECT_EQ(std::string(makeTaskScheduler("fifo")->policyName()),
              "fifo");
    EXPECT_EQ(std::string(makeTaskScheduler("fair")->policyName()),
              "fair");
    EXPECT_EQ(std::string(makeTaskScheduler("priority")->policyName()),
              "priority");
    EXPECT_THROW(makeTaskScheduler("nope"), SimFatal);
}

} // namespace
