#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <vector>

namespace babol {

std::string
vstrfmt(const char *fmt, std::va_list args)
{
    // One pass into a stack buffer covers almost every message; only
    // longer text is measured and formatted a second time.
    char buf[256];
    std::va_list args_copy;
    va_copy(args_copy, args);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, args_copy);
    va_end(args_copy);
    if (n < 0)
        return std::string("<format error>");
    if (static_cast<std::size_t>(n) < sizeof(buf))
        return std::string(buf, static_cast<std::size_t>(n));

    std::string out(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string out = vstrfmt(fmt, args);
    va_end(args);
    return out;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    throw SimPanic(msg);
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    throw SimFatal(msg);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

namespace {

std::set<std::string> &
flagSet()
{
    static std::set<std::string> flags = [] {
        std::set<std::string> init;
        if (const char *env = std::getenv("BABOL_DEBUG")) {
            std::string s(env);
            std::size_t pos = 0;
            while (pos < s.size()) {
                std::size_t comma = s.find(',', pos);
                if (comma == std::string::npos)
                    comma = s.size();
                if (comma > pos)
                    init.insert(s.substr(pos, comma - pos));
                pos = comma + 1;
            }
        }
        return init;
    }();
    return flags;
}

/** True while any flag is enabled: dtrace's disabled path checks only
 *  this, before building a string or searching the set. Kept in step
 *  with flagSet() by enable/disable/clearAll. */
std::atomic<bool> &
anyFlag()
{
    static std::atomic<bool> any{!flagSet().empty()};
    return any;
}

} // namespace

void
DebugFlags::enable(const std::string &flag)
{
    flagSet().insert(flag);
    anyFlag().store(true, std::memory_order_relaxed);
}

void
DebugFlags::disable(const std::string &flag)
{
    flagSet().erase(flag);
    anyFlag().store(!flagSet().empty(), std::memory_order_relaxed);
}

bool
DebugFlags::enabled(const std::string &flag)
{
    const auto &flags = flagSet();
    return flags.count(flag) > 0 || flags.count("All") > 0;
}

void
DebugFlags::clearAll()
{
    flagSet().clear();
    anyFlag().store(false, std::memory_order_relaxed);
}

bool
DebugFlags::any()
{
    return anyFlag().load(std::memory_order_relaxed);
}

void
dtrace(const char *flag, const char *fmt, ...)
{
    if (!anyFlag().load(std::memory_order_relaxed) ||
        !DebugFlags::enabled(flag))
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "%s: %s\n", flag, msg.c_str());
}

} // namespace babol
