#include "campaign/ledger.hh"

#include <algorithm>

namespace babol::campaign {

namespace {

/** splitmix64 finalizer: the keyed byte-stream generator behind the
 *  stamped data patterns. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

constexpr std::uint8_t kMagic[4] = {0xB0, 0xB0, 0x7E, 0x57};

} // namespace

void
stampPattern(std::vector<std::uint8_t> &page, std::uint64_t lpn,
             std::uint64_t gen)
{
    std::copy(std::begin(kMagic), std::end(kMagic), page.begin());
    for (int i = 0; i < 4; ++i)
        page[4 + i] = static_cast<std::uint8_t>(lpn >> (8 * i));
    for (int i = 0; i < 8; ++i)
        page[8 + i] = static_cast<std::uint8_t>(gen >> (8 * i));
    std::uint64_t s = mix64(lpn * 0x10001u + gen);
    for (std::size_t off = 16; off < page.size(); off += 8) {
        s = mix64(s);
        for (std::size_t i = 0; i < 8 && off + i < page.size(); ++i)
            page[off + i] = static_cast<std::uint8_t>(s >> (8 * i));
    }
}

bool
readStamp(const std::vector<std::uint8_t> &page, std::uint64_t lpn,
          std::uint64_t *gen)
{
    if (!std::equal(std::begin(kMagic), std::end(kMagic), page.begin()))
        return false;
    std::uint64_t got_lpn = 0;
    for (int i = 0; i < 4; ++i)
        got_lpn |= static_cast<std::uint64_t>(page[4 + i]) << (8 * i);
    if (got_lpn != lpn)
        return false;
    *gen = 0;
    for (int i = 0; i < 8; ++i)
        *gen |= static_cast<std::uint64_t>(page[8 + i]) << (8 * i);
    return true;
}

void
Digest::fold(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        fnv_ ^= (v >> (8 * i)) & 0xFF;
        fnv_ *= 1099511628211ull;
    }
}

std::uint64_t
Ledger::issue(std::uint64_t lpn)
{
    ++issued;
    return ++issuedGen[lpn];
}

void
Ledger::ack(std::uint64_t lpn, std::uint64_t gen)
{
    ackedGen[lpn] = std::max(ackedGen[lpn], gen);
    ++acked;
}

Verdict
Ledger::check(const std::vector<std::uint8_t> &page, std::uint64_t lpn,
              std::uint64_t floor, std::uint64_t *gen) const
{
    *gen = 0;
    if (!readStamp(page, lpn, gen))
        return Verdict::NoStamp;
    if (*gen < floor)
        return Verdict::Stale;
    if (*gen > issuedGen[lpn])
        return Verdict::NeverIssued;
    std::vector<std::uint8_t> want(page.size());
    stampPattern(want, lpn, *gen);
    return page == want ? Verdict::Valid : Verdict::Corrupt;
}

} // namespace babol::campaign
