#include "flash_array.hh"

#include <algorithm>
#include <cmath>

namespace babol::nand {

FlashArray::FlashArray(const Geometry &geo, std::uint64_t seed,
                       ReliabilityParams rel)
    : geo_(geo), rel_(rel), rng_(seed), blocks_(geo.blocksPerLun())
{}

std::uint64_t
FlashArray::pageKey(std::uint32_t block, std::uint32_t page) const
{
    return static_cast<std::uint64_t>(block) * geo_.pagesPerBlock + page;
}

void
FlashArray::checkBlock(std::uint32_t block) const
{
    babol_assert(block < blocks_.size(), "block %u out of range (max %zu)",
                 block, blocks_.size());
}

void
FlashArray::checkPage(std::uint32_t block, std::uint32_t page) const
{
    checkBlock(block);
    babol_assert(page < geo_.pagesPerBlock, "page %u out of range", page);
}

ArrayStatus
FlashArray::eraseBlock(std::uint32_t block, bool slcMode)
{
    checkBlock(block);
    BlockState &bs = blocks_[block];
    if (bs.bad)
        return ArrayStatus::Fail;

    ++bs.peCycles;
    bs.nextPage = 0;
    bs.reads = 0;
    bs.slc = slcMode;
    // Erased pages' storage waits for the next program to reuse it.
    for (std::uint32_t p = 0; p < geo_.pagesPerBlock; ++p) {
        if (auto node = pages_.extract(pageKey(block, p)))
            erasedPages_.push_back(std::move(node));
    }

    // Past rated endurance, each further erase has a growing chance of a
    // verify failure, after which the block should be retired.
    double endurance = rel_.endurancePe *
                       (slcMode ? rel_.slcEnduranceFactor : 1.0);
    if (bs.peCycles > endurance) {
        double overshoot = (bs.peCycles - endurance) / endurance;
        if (rng_.chance(std::min(0.5, overshoot))) {
            bs.bad = true;
            return ArrayStatus::Fail;
        }
    }
    return ArrayStatus::Ok;
}

ArrayStatus
FlashArray::programPage(std::uint32_t block, std::uint32_t page,
                        std::span<const std::uint8_t> data, Tick now)
{
    checkPage(block, page);
    babol_assert(data.size() <= geo_.pageTotalBytes(),
                 "program data %zu exceeds page size %u", data.size(),
                 geo_.pageTotalBytes());
    BlockState &bs = blocks_[block];
    if (bs.bad)
        return ArrayStatus::Fail;

    // NAND constraints: in-order programming, one program per erase.
    if (page != bs.nextPage)
        return ArrayStatus::ProtocolError;
    if (pages_.count(pageKey(block, page)))
        return ArrayStatus::ProtocolError;

    const std::uint64_t key = pageKey(block, page);
    StoredPage *sp;
    if (erasedPages_.empty()) {
        sp = &pages_[key];
    } else {
        auto node = std::move(erasedPages_.back());
        erasedPages_.pop_back();
        node.key() = key;
        sp = &pages_.insert(std::move(node)).position->second;
    }
    sp->bytes.assign(geo_.pageTotalBytes(), 0xFF);
    std::copy(data.begin(), data.end(), sp->bytes.begin());
    sp->programTick = now;
    sp->readsBaseline = bs.reads;
    bs.nextPage = page + 1;
    return ArrayStatus::Ok;
}

double
FlashArray::effectiveRber(std::uint32_t block, std::uint32_t retryLevel,
                          bool slcRead) const
{
    checkBlock(block);
    const BlockState &bs = blocks_[block];

    double wear = 1.0 + std::pow(bs.peCycles / rel_.wearKneePe, 2.0);
    double rber = rel_.baseRber * wear;

    std::uint32_t optimal = optimalRetryLevel(block);
    std::uint32_t dist = retryLevel > optimal ? retryLevel - optimal
                                              : optimal - retryLevel;
    rber *= std::pow(rel_.retryLevelPenalty, static_cast<double>(dist));

    if (bs.slc && slcRead)
        rber *= rel_.slcRberFactor;
    return std::min(rber, 0.5);
}

std::uint32_t
FlashArray::optimalRetryLevel(std::uint32_t block) const
{
    checkBlock(block);
    return static_cast<std::uint32_t>(blocks_[block].peCycles /
                                      rel_.levelDriftPe);
}

double
FlashArray::pageRber(std::uint32_t block, std::uint32_t page,
                     std::uint32_t retryLevel, bool slcRead,
                     Tick now) const
{
    double rber = effectiveRber(block, retryLevel, slcRead);
    auto it = pages_.find(pageKey(block, page));
    if (it == pages_.end())
        return rber;
    const StoredPage &sp = it->second;

    // Retention: charge leakage since program, linear in age past the
    // knee so doubling the age roughly doubles the extra error mass.
    if (now > sp.programTick) {
        double age_ms = ticks::toUs(now - sp.programTick) / 1000.0;
        rber *= 1.0 + age_ms / rel_.retentionKneeMs;
    }

    // Read disturb: every sibling read since this page was programmed
    // nudges its cells; a refresh (rewrite elsewhere) resets the count.
    double disturb = static_cast<double>(blocks_[block].reads -
                                         sp.readsBaseline);
    rber *= 1.0 + disturb / rel_.readDisturbKneeReads;

    return std::min(rber, 0.5);
}

std::uint64_t
FlashArray::readDisturb(std::uint32_t block, std::uint32_t page) const
{
    checkPage(block, page);
    auto it = pages_.find(pageKey(block, page));
    if (it == pages_.end())
        return 0;
    return blocks_[block].reads - it->second.readsBaseline;
}

Tick
FlashArray::retentionAge(std::uint32_t block, std::uint32_t page,
                         Tick now) const
{
    checkPage(block, page);
    auto it = pages_.find(pageKey(block, page));
    if (it == pages_.end() || now < it->second.programTick)
        return 0;
    return now - it->second.programTick;
}

PageLoad
FlashArray::readPage(std::uint32_t block, std::uint32_t page,
                     std::uint32_t retryLevel, bool slcRead, Tick now)
{
    PageLoad load;
    readPage(block, page, retryLevel, slcRead, now, load);
    return load;
}

void
FlashArray::readPage(std::uint32_t block, std::uint32_t page,
                     std::uint32_t retryLevel, bool slcRead, Tick now,
                     PageLoad &load)
{
    checkPage(block, page);

    load.flippedBits.clear();
    auto it = pages_.find(pageKey(block, page));
    if (it == pages_.end()) {
        // Erased (or never-written) pages read back as all ones with no
        // meaningful error content.
        load.data.assign(geo_.pageTotalBytes(), 0xFF);
        load.programmed = false;
        ++blocks_[block].reads;
        return;
    }

    load.data = it->second.bytes;
    load.programmed = true;

    // Sample the decay terms before counting this read: the disturb a
    // read suffers comes from the reads before it, which keeps the
    // draw a pure function of prior state (determinism).
    double rber = pageRber(block, page, retryLevel, slcRead, now);
    ++blocks_[block].reads;
    std::uint64_t total_bits =
        static_cast<std::uint64_t>(load.data.size()) * 8;
    std::uint64_t flips = rng_.binomial(total_bits, rber);
    load.flippedBits.reserve(flips);
    for (std::uint64_t i = 0; i < flips; ++i) {
        auto bit = static_cast<std::uint32_t>(
            rng_.uniform(0, total_bits - 1));
        load.data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        load.flippedBits.push_back(bit);
    }
}

std::uint32_t
FlashArray::peCycles(std::uint32_t block) const
{
    checkBlock(block);
    return blocks_[block].peCycles;
}

bool
FlashArray::isSlcBlock(std::uint32_t block) const
{
    checkBlock(block);
    return blocks_[block].slc;
}

bool
FlashArray::isBadBlock(std::uint32_t block) const
{
    checkBlock(block);
    return blocks_[block].bad;
}

void
FlashArray::agePeCycles(std::uint32_t block, std::uint32_t cycles)
{
    checkBlock(block);
    blocks_[block].peCycles += cycles;
}

void
FlashArray::tearPage(std::uint32_t block, std::uint32_t page)
{
    checkPage(block, page);
    BlockState &bs = blocks_[block];
    if (pages_.count(pageKey(block, page)) || page != bs.nextPage)
        return;

    // Deterministic garbage keyed by location and wear: crash campaigns
    // must replay byte-identically, so the torn image cannot come from
    // the array's shared RNG stream (whose phase depends on prior ops).
    std::uint64_t x = (static_cast<std::uint64_t>(block) << 32 | page) ^
                      (static_cast<std::uint64_t>(bs.peCycles) * 0x9E3779B97F4A7C15ull);
    StoredPage sp;
    sp.bytes.resize(geo_.pageTotalBytes());
    for (auto &b : sp.bytes) {
        // splitmix64 step, one byte per draw.
        x += 0x9E3779B97F4A7C15ull;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        b = static_cast<std::uint8_t>(z ^ (z >> 31));
    }
    sp.readsBaseline = bs.reads;
    pages_[pageKey(block, page)] = std::move(sp);
    bs.nextPage = page + 1;
}

void
FlashArray::copyStateFrom(const FlashArray &other)
{
    babol_assert(geo_ == other.geo_,
                 "array state transplant requires matching geometry");
    blocks_ = other.blocks_;
    pages_ = other.pages_;
}

std::uint32_t
FlashArray::nextPage(std::uint32_t block) const
{
    checkBlock(block);
    return blocks_[block].nextPage;
}

} // namespace babol::nand
