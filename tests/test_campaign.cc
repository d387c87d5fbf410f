/**
 * @file
 * The campaign harness's contract logic on its own: the ledger's
 * judgement of a read-back page, one case per verdict, and the FNV-1a
 * digest fold on fixed inputs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "campaign/ledger.hh"

using namespace babol;
using namespace babol::campaign;

namespace {

TEST(CampaignLedger, CheckJudgesEachKindOfReadBackPage)
{
    // LPN 5 was issued up to gen 4 and acknowledged up to gen 3.
    Ledger led(8);
    for (std::uint64_t g = 1; g <= 4; ++g)
        EXPECT_EQ(led.issue(5), g);
    for (std::uint64_t g = 1; g <= 3; ++g)
        led.ack(5, g);
    ASSERT_EQ(led.issued, 4u);
    ASSERT_EQ(led.acked, 3u);
    ASSERT_EQ(led.ackedGen[5], 3u);

    using Page = std::vector<std::uint8_t>;
    auto stamped = [](std::uint64_t lpn, std::uint64_t gen) {
        Page page(512);
        stampPattern(page, lpn, gen);
        return page;
    };
    auto flip = [](Page page, std::size_t at) {
        page[at] ^= 0x01;
        return page;
    };
    const struct
    {
        const char *name;
        Page page;
        Verdict want;
        std::uint64_t gen;
    } cases[] = {
        {"valid acked gen", stamped(5, 3), Verdict::Valid, 3},
        {"valid unacked gen", stamped(5, 4), Verdict::Valid, 4},
        {"missing magic", flip(stamped(5, 3), 2), Verdict::NoStamp, 0},
        {"wrong lpn", stamped(6, 3), Verdict::NoStamp, 0},
        {"gen below acked", stamped(5, 2), Verdict::Stale, 2},
        {"gen above issued", stamped(5, 5), Verdict::NeverIssued, 5},
        {"flipped payload byte", flip(stamped(5, 3), 300), Verdict::Corrupt,
         3},
    };
    for (const auto &c : cases) {
        std::uint64_t gen = 99;
        EXPECT_EQ(led.check(c.page, 5, &gen), c.want) << c.name;
        EXPECT_EQ(gen, c.gen) << c.name;
    }

    // A read issued before gen 3 was acked may legitimately return gen 2.
    std::uint64_t gen = 0;
    EXPECT_EQ(led.check(stamped(5, 2), 5, 2, &gen), Verdict::Valid);
}

TEST(CampaignDigest, FoldIsFnv1aOverLittleEndianBytes)
{
    // Reference values from an independent FNV-1a over the same bytes,
    // seeded with the digest's offset basis (see Digest).
    Digest text;
    text.fold(0x6867666564636261ull); // the bytes "abcdefgh"
    EXPECT_EQ(text.value(), 0xd95aec8148a44733ull);

    Digest zero;
    zero.fold(0);
    EXPECT_EQ(zero.value(), 0x47fe0d7eaf8e51e3ull);

    // Order matters: the fold is a sequence witness, not a set hash.
    Digest seq, rev;
    for (std::uint64_t v : {1, 2, 3})
        seq.fold(v);
    for (std::uint64_t v : {3, 2, 1})
        rev.fold(v);
    EXPECT_EQ(seq.value(), 0x709f5d07b8a8d623ull);
    EXPECT_NE(seq.value(), rev.value());
}

} // namespace
