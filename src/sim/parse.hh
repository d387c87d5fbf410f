/**
 * @file
 * Strict unsigned-decimal parsing for hand-written inputs: fault plans,
 * block traces and command-line values. Unlike strtoull it never wraps
 * a sign ("-5") into a huge value or stops quietly at junk ("12abc").
 */

#ifndef BABOL_SIM_PARSE_HH
#define BABOL_SIM_PARSE_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string_view>

namespace babol {

/** An all-digit decimal no larger than @p max; nullopt otherwise (a
 *  sign, trailing junk, an empty string or an out-of-range value). */
inline std::optional<std::uint64_t>
parseDigits(std::string_view val,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    // from_chars takes no sign, whitespace or base prefix for unsigned
    // types, so only the full-length match needs checking.
    std::uint64_t v = 0;
    const char *end = val.data() + val.size();
    auto [ptr, ec] = std::from_chars(val.data(), end, v);
    if (ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

/** The value of the count flag @p flag: parseDigits(@p val, @p max), or
 *  a usage error naming the flag and exit status 2. */
inline std::uint64_t
parseCountFlag(const char *flag, const char *val,
               std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    if (const auto v = parseDigits(val, max))
        return *v;
    std::fprintf(stderr, "usage: %s takes a decimal count, got '%s'\n", flag,
                 val);
    std::exit(2);
}

} // namespace babol

#endif // BABOL_SIM_PARSE_HH
