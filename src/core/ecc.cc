#include "ecc.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace babol::core {

namespace {

/** Little-endian 64-bit load, so the parity is the same on every host. */
std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

/** Full-avalanche 64-bit mix (the MurmurHash3 finaliser). */
std::uint64_t
mix64(std::uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

/**
 * The parity the real encoder would compute, as a 32-bit hash of the
 * codeword's data. Four independent lanes take 8-byte words in turn
 * (l = (l ^ word) * k with odd k, a bijection in each word, so a change
 * to any one word always changes its lane); a short tail is zero-padded
 * to one more round, and the lanes and the length are then folded
 * through a full multiply-xor mix.
 */
std::uint32_t
checksum(std::span<const std::uint8_t> data)
{
    constexpr std::uint64_t kA = 0x9e3779b97f4a7c15ull;
    constexpr std::uint64_t kB = 0xc2b2ae3d27d4eb4full;
    constexpr std::uint64_t kC = 0x165667b19e3779f9ull;
    constexpr std::uint64_t kD = 0x27d4eb2f165667c5ull;
    std::uint64_t a = 0x243f6a8885a308d3ull, b = 0x13198a2e03707344ull,
                  c = 0xa4093822299f31d0ull, d = 0x082efa98ec4e6c89ull;
    auto round = [&](const std::uint8_t *p) {
        a = (a ^ loadLe64(p)) * kA;
        b = (b ^ loadLe64(p + 8)) * kB;
        c = (c ^ loadLe64(p + 16)) * kC;
        d = (d ^ loadLe64(p + 24)) * kD;
    };
    const std::uint8_t *p = data.data();
    std::size_t n = data.size();
    for (; n >= 32; p += 32, n -= 32)
        round(p);
    if (n > 0) {
        std::uint8_t tail[32] = {};
        std::memcpy(tail, p, n);
        round(tail);
    }

    std::uint64_t h = mix64(data.size() * kA);
    for (std::uint64_t lane : {a, b, c, d})
        h = mix64(h ^ lane);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

} // namespace

std::uint32_t
EccEngine::codewordsFor(std::uint32_t data_bytes) const
{
    return (data_bytes + params_.codewordDataBytes - 1) /
           params_.codewordDataBytes;
}

std::uint32_t
EccEngine::flashBytesFor(std::uint32_t data_bytes) const
{
    return codewordsFor(data_bytes) * codewordTotalBytes();
}

std::uint32_t
EccEngine::flashColumnFor(std::uint32_t payload_column) const
{
    babol_assert(payload_column % params_.codewordDataBytes == 0,
                 "payload column %u not codeword-aligned", payload_column);
    return payload_column / params_.codewordDataBytes *
           codewordTotalBytes();
}

std::vector<std::uint8_t>
EccEngine::encode(std::span<const std::uint8_t> data) const
{
    std::vector<std::uint8_t> image(
        flashBytesFor(static_cast<std::uint32_t>(data.size())));
    encodeInto(data, image);
    return image;
}

void
EccEngine::encodeInto(std::span<const std::uint8_t> data,
                      std::span<std::uint8_t> image) const
{
    const std::uint32_t cw_data = params_.codewordDataBytes;
    const std::uint32_t cw_total = codewordTotalBytes();
    const std::uint32_t n_cw = codewordsFor(
        static_cast<std::uint32_t>(data.size()));
    babol_assert(image.size() == static_cast<std::size_t>(n_cw) * cw_total,
                 "ECC image of %zu bytes for %u codewords", image.size(),
                 n_cw);

    for (std::uint32_t cw = 0; cw < n_cw; ++cw) {
        std::size_t src = static_cast<std::size_t>(cw) * cw_data;
        std::size_t len = std::min<std::size_t>(cw_data,
                                                data.size() - src);
        std::size_t dst = static_cast<std::size_t>(cw) * cw_total;
        std::copy_n(data.begin() + src, len, image.begin() + dst);
        // A short last codeword keeps the erased 0xFF padding.
        std::fill_n(image.begin() + dst + len, cw_data - len, 0xFF);

        std::uint32_t sum = checksum(
            std::span<const std::uint8_t>(image.data() + dst, cw_data));
        std::uint8_t *parity = image.data() + dst + cw_data;
        std::fill(parity, parity + params_.parityBytes, 0);
        for (int i = 0; i < 4; ++i)
            parity[i] = static_cast<std::uint8_t>(sum >> (8 * i));
    }
}

EccReport
EccEngine::decode(std::span<std::uint8_t> image, std::uint32_t page_column,
                  std::span<const std::uint32_t> flips) const
{
    const std::uint32_t cw_total = codewordTotalBytes();
    babol_assert(image.size() % cw_total == 0,
                 "ECC decode needs whole codewords (got %zu bytes)",
                 image.size());

    EccReport report;
    report.codewords = static_cast<std::uint32_t>(image.size() / cw_total);

    // Pass 1: count injected errors per codeword within the capture.
    // A page's worth of counters lives on the stack.
    constexpr std::uint32_t kStackCodewords = 64;
    std::uint32_t stack_errs[kStackCodewords];
    std::vector<std::uint32_t> heap_errs;
    std::uint32_t *errs = stack_errs;
    if (report.codewords > kStackCodewords) {
        heap_errs.assign(report.codewords, 0);
        errs = heap_errs.data();
    } else {
        std::fill_n(stack_errs, report.codewords, 0u);
    }
    for (std::uint32_t bit : flips) {
        std::uint32_t byte = bit / 8;
        if (byte < page_column || byte >= page_column + image.size())
            continue;
        errs[(byte - page_column) / cw_total]++;
    }
    for (std::uint32_t cw = 0; cw < report.codewords; ++cw)
        report.maxCodewordBits = std::max(report.maxCodewordBits, errs[cw]);

    // Pass 2: correct codewords within capability; leave the rest dirty.
    for (std::uint32_t bit : flips) {
        std::uint32_t byte = bit / 8;
        if (byte < page_column || byte >= page_column + image.size())
            continue;
        std::uint32_t cw = (byte - page_column) / cw_total;
        if (errs[cw] <= params_.correctBits) {
            image[byte - page_column] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
            ++report.correctedBits;
        }
    }

    // Pass 3: verify parity checksums. Codewords past the capability, or
    // pages written raw (no encode), show up here as failures.
    for (std::uint32_t cw = 0; cw < report.codewords; ++cw) {
        if (errs[cw] > params_.correctBits) {
            ++report.failedCodewords;
            continue;
        }
        const std::uint8_t *base = image.data() +
                                   static_cast<std::size_t>(cw) * cw_total;
        std::uint32_t sum = checksum(std::span<const std::uint8_t>(
            base, params_.codewordDataBytes));
        std::uint32_t stored = 0;
        for (int i = 0; i < 4; ++i)
            stored |= static_cast<std::uint32_t>(
                          base[params_.codewordDataBytes + i])
                      << (8 * i);
        if (sum != stored)
            ++report.failedCodewords;
    }
    return report;
}

std::vector<std::uint8_t>
EccEngine::extractData(std::span<const std::uint8_t> image,
                       std::uint32_t data_bytes) const
{
    std::vector<std::uint8_t> data(data_bytes);
    extractInto(image, data);
    return data;
}

void
EccEngine::extractInto(std::span<const std::uint8_t> image,
                       std::span<std::uint8_t> out) const
{
    const std::size_t cw_data = params_.codewordDataBytes;
    const std::size_t cw_total = codewordTotalBytes();
    std::size_t src = 0;
    for (std::size_t off = 0; off < out.size();
         off += cw_data, src += cw_total) {
        const std::size_t len = std::min(cw_data, out.size() - off);
        babol_assert(src + len <= image.size(), "extract past end of image");
        std::copy_n(image.begin() + src, len, out.begin() + off);
    }
}

} // namespace babol::core
