/**
 * @file
 * ECC engine tests: codeword layout, correction capability, failure
 * detection, payload extraction, and the flash-column mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/ecc.hh"
#include "sim/random.hh"

using namespace babol;
using namespace babol::core;

namespace {

/** Extract through both entry points; they must agree byte for byte. */
std::vector<std::uint8_t>
extractBoth(const EccEngine &ecc, std::span<const std::uint8_t> image,
            std::uint32_t data_bytes)
{
    std::vector<std::uint8_t> into(data_bytes);
    ecc.extractInto(image, into);
    std::vector<std::uint8_t> data = ecc.extractData(image, data_bytes);
    EXPECT_EQ(into, data);
    return data;
}

TEST(Ecc, LayoutQuantities)
{
    EccEngine ecc;
    EXPECT_EQ(ecc.codewordTotalBytes(), 1024u + 117u);
    EXPECT_EQ(ecc.codewordsFor(16384), 16u);
    EXPECT_EQ(ecc.codewordsFor(1), 1u);
    EXPECT_EQ(ecc.codewordsFor(1025), 2u);
    EXPECT_EQ(ecc.flashBytesFor(16384), 16u * 1141u);
    // The default layout fills a 16384+1872 page exactly.
    EXPECT_EQ(ecc.flashBytesFor(16384), 16384u + 1872u);
}

TEST(Ecc, FlashColumnMapping)
{
    EccEngine ecc;
    EXPECT_EQ(ecc.flashColumnFor(0), 0u);
    EXPECT_EQ(ecc.flashColumnFor(1024), 1141u);
    EXPECT_EQ(ecc.flashColumnFor(4096), 4u * 1141u);
    EXPECT_THROW(ecc.flashColumnFor(100), SimPanic);
}

TEST(Ecc, EncodeDecodeCleanRoundTrip)
{
    EccEngine ecc;
    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 17);

    auto image = ecc.encode(data);
    ASSERT_EQ(image.size(), ecc.flashBytesFor(4096));

    EccReport report = ecc.decode(image, 0, {});
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.codewords, 4u);
    EXPECT_EQ(report.correctedBits, 0u);
    EXPECT_EQ(extractBoth(ecc, image, 4096), data);
}

TEST(Ecc, CorrectsUpToCapability)
{
    EccEngine ecc; // 8 bits per codeword
    std::vector<std::uint8_t> data(1024, 0xAB);
    auto image = ecc.encode(data);

    std::vector<std::uint32_t> flips;
    for (int i = 0; i < 8; ++i) {
        std::uint32_t bit = static_cast<std::uint32_t>(i * 991 + 3);
        flips.push_back(bit);
        image[bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));
    }
    EccReport report = ecc.decode(image, 0, flips);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.correctedBits, 8u);
    EXPECT_EQ(extractBoth(ecc, image, 1024), data);
}

TEST(Ecc, FailsBeyondCapabilityAndLeavesCodewordDirty)
{
    EccEngine ecc;
    std::vector<std::uint8_t> data(2048, 0x11); // 2 codewords
    auto image = ecc.encode(data);

    // 9 flips in codeword 0, 1 flip in codeword 1.
    std::vector<std::uint32_t> flips;
    for (int i = 0; i < 9; ++i)
        flips.push_back(static_cast<std::uint32_t>(i * 800 + 5));
    flips.push_back(1141 * 8 + 100); // codeword 1 territory
    for (std::uint32_t bit : flips)
        image[bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));

    EccReport report = ecc.decode(image, 0, flips);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.failedCodewords, 1u);
    EXPECT_EQ(report.correctedBits, 1u); // only codeword 1 corrected

    // Codeword 1's payload is intact; codeword 0's is not.
    auto extracted = extractBoth(ecc, image, 2048);
    EXPECT_NE(std::vector<std::uint8_t>(extracted.begin(),
                                        extracted.begin() + 1024),
              std::vector<std::uint8_t>(1024, 0x11));
    EXPECT_EQ(std::vector<std::uint8_t>(extracted.begin() + 1024,
                                        extracted.end()),
              std::vector<std::uint8_t>(1024, 0x11));
}

TEST(Ecc, PartialCaptureUsesPageColumn)
{
    EccEngine ecc;
    std::vector<std::uint8_t> data(16384, 0x3C);
    auto image = ecc.encode(data);

    // Take codewords 4..7 out of the full image, flip a bit inside.
    std::uint32_t page_col = ecc.flashColumnFor(4 * 1024);
    std::vector<std::uint8_t> slice(image.begin() + page_col,
                                    image.begin() + page_col + 4 * 1141);
    std::uint32_t page_bit = (page_col + 10) * 8 + 3;
    slice[10] ^= 1 << 3;

    std::vector<std::uint32_t> flips{page_bit};
    EccReport report = ecc.decode(slice, page_col, flips);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.correctedBits, 1u);
    EXPECT_EQ(extractBoth(ecc, slice, 4096),
              std::vector<std::uint8_t>(4096, 0x3C));
}

TEST(Ecc, FlipsOutsideCaptureAreIgnored)
{
    EccEngine ecc;
    std::vector<std::uint8_t> data(1024, 0x77);
    auto image = ecc.encode(data);
    // Flip positions far beyond this capture.
    std::vector<std::uint32_t> far{200000u, 300000u};
    EccReport report = ecc.decode(image, 0, far);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.correctedBits, 0u);
}

/** Pages programmed raw (never through encode) must fail the tripwire,
 *  whether the capture is one codeword or several. */
TEST(Ecc, RawCodewordsFailChecksum)
{
    EccEngine ecc;
    for (std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
        std::vector<std::uint8_t> one(1141, fill);
        EccReport report = ecc.decode(one, 0, {});
        EXPECT_FALSE(report.ok()) << "fill " << int(fill);
        EXPECT_EQ(report.failedCodewords, 1u) << "fill " << int(fill);

        std::vector<std::uint8_t> page(ecc.flashBytesFor(16384), fill);
        report = ecc.decode(page, 0, {});
        EXPECT_EQ(report.codewords, 16u);
        EXPECT_EQ(report.failedCodewords, 16u) << "fill " << int(fill);
    }
}

/**
 * The checksum is only a tripwire, but every single-bit error it covers
 * must trip it: flip each bit of the data bytes and of the four stored
 * checksum bytes without reporting it in the sideband list.
 */
TEST(Ecc, EveryUnreportedDataBitFlipFailsDecode)
{
    EccEngine ecc;
    const std::uint32_t covered = 1024 + 4;
    std::vector<std::vector<std::uint8_t>> patterns = {
        std::vector<std::uint8_t>(1024, 0x00),
        std::vector<std::uint8_t>(1024, 0xFF),
        std::vector<std::uint8_t>(1024)};
    Rng rng(0x7219);
    for (auto &b : patterns[2])
        b = static_cast<std::uint8_t>(rng.uniform(0, 255));

    for (std::size_t p = 0; p < patterns.size(); ++p) {
        const auto image = ecc.encode(patterns[p]);
        auto clean = image;
        ASSERT_TRUE(ecc.decode(clean, 0, {}).ok());
        std::uint32_t missed = 0;
        for (std::uint32_t bit = 0; bit < covered * 8; ++bit) {
            auto dirty = image;
            dirty[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            if (ecc.decode(dirty, 0, {}).ok())
                ++missed;
        }
        EXPECT_EQ(missed, 0u) << "pattern " << p;
    }
}

/** Reference extract: one payload byte at a time. */
std::vector<std::uint8_t>
extractByteByByte(const EccEngine &ecc, const std::vector<std::uint8_t> &image,
                  std::uint32_t data_bytes)
{
    const std::uint32_t cw_data = ecc.params().codewordDataBytes;
    std::vector<std::uint8_t> data(data_bytes);
    for (std::uint32_t off = 0; off < data_bytes; ++off)
        data[off] = image.at(static_cast<std::size_t>(off / cw_data) *
                                 ecc.codewordTotalBytes() +
                             off % cw_data);
    return data;
}

TEST(Ecc, ExtractHandlesPartialLastCodeword)
{
    EccEngine ecc;
    std::vector<std::uint8_t> data(3000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 31 + 7);
    const auto image = ecc.encode(data);
    ASSERT_EQ(image.size(), 3u * 1141u);
    // The short last codeword is padded with erased bytes and decodes.
    EXPECT_TRUE(std::all_of(image.begin() + 2 * 1141 + 952,
                            image.begin() + 2 * 1141 + 1024,
                            [](std::uint8_t b) { return b == 0xFF; }));
    auto clean = image;
    EXPECT_TRUE(ecc.decode(clean, 0, {}).ok());

    for (std::uint32_t len : {3000u, 2049u, 1024u, 1023u, 1u, 0u}) {
        const auto want = extractByteByByte(ecc, image, len);
        EXPECT_EQ(want, std::vector<std::uint8_t>(data.begin(),
                                                  data.begin() + len));
        EXPECT_EQ(ecc.extractData(image, len), want) << "len " << len;
        std::vector<std::uint8_t> out(len, 0x5A);
        ecc.extractInto(image, out);
        EXPECT_EQ(out, want) << "len " << len;
    }
    // Past the last codeword's data is the extract's bounds check.
    EXPECT_THROW(ecc.extractData(image, 3u * 1024u + 1u), SimPanic);
    std::vector<std::uint8_t> too_long(3u * 1024u + 1u);
    EXPECT_THROW(ecc.extractInto(image, too_long), SimPanic);
}

TEST(Ecc, NonCodewordAlignedDecodePanics)
{
    EccEngine ecc;
    std::vector<std::uint8_t> bad(100);
    EXPECT_THROW(ecc.decode(bad, 0, {}), SimPanic);
}

TEST(Ecc, CustomParamsRespectCapability)
{
    EccParams params;
    params.codewordDataBytes = 512;
    params.parityBytes = 32;
    params.correctBits = 2;
    EccEngine ecc(params);

    std::vector<std::uint8_t> data(512, 0x01);
    auto image = ecc.encode(data);
    std::vector<std::uint32_t> flips{8, 16, 24};
    for (std::uint32_t bit : flips)
        image[bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));
    EXPECT_FALSE(ecc.decode(image, 0, flips).ok()); // 3 > 2
}

/** Property: random flip patterns round-trip iff within capability. */
TEST(Ecc, RandomFlipFuzz)
{
    EccEngine ecc;
    Rng rng(0xECC);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::uint8_t> data(4096);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.uniform(0, 255));
        auto image = ecc.encode(data);

        std::uint32_t per_cw = static_cast<std::uint32_t>(
            rng.uniform(0, 8)); // within capability
        std::vector<std::uint32_t> flips;
        for (std::uint32_t cw = 0; cw < 4; ++cw) {
            for (std::uint32_t k = 0; k < per_cw; ++k) {
                // Distinct positions inside the codeword.
                std::uint32_t bit =
                    cw * 1141 * 8 +
                    static_cast<std::uint32_t>(rng.uniform(0, 1140)) * 8 +
                    (k % 8);
                if (std::find(flips.begin(), flips.end(), bit) !=
                    flips.end()) {
                    continue;
                }
                flips.push_back(bit);
                image[bit / 8] ^=
                    static_cast<std::uint8_t>(1 << (bit % 8));
            }
        }
        EccReport report = ecc.decode(image, 0, flips);
        EXPECT_TRUE(report.ok()) << "trial " << trial;
        EXPECT_EQ(extractBoth(ecc, image, 4096), data) << "trial " << trial;
    }
}

} // namespace
