#include "fault_plan.hh"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "sim/logging.hh"
#include "sim/parse.hh"

namespace babol::fault {

const char *
toString(FaultKind k)
{
    switch (k) {
      case FaultKind::BitBurst:
        return "bitburst";
      case FaultKind::ProgFail:
        return "progfail";
      case FaultKind::EraseFail:
        return "erasefail";
      case FaultKind::StuckBusy:
        return "stuckbusy";
      case FaultKind::Drift:
        return "drift";
      case FaultKind::PowerCut:
        return "powercut";
      case FaultKind::DieFail:
        return "diefail";
      case FaultKind::BlockFail:
        return "blockfail";
    }
    return "?";
}

namespace {

FaultKind
kindFromString(const std::string &s, int line_no)
{
    for (FaultKind k : {FaultKind::BitBurst, FaultKind::ProgFail,
                        FaultKind::EraseFail, FaultKind::StuckBusy,
                        FaultKind::Drift, FaultKind::PowerCut,
                        FaultKind::DieFail, FaultKind::BlockFail}) {
        if (s == toString(k))
            return k;
    }
    panic("fault plan line %d: unknown fault kind '%s'", line_no,
          s.c_str());
}

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/** "7" or "2-9" (inclusive); "*" leaves the full range. */
void
parseRange(const std::string &val, int line_no, std::uint32_t *lo,
           std::uint32_t *hi)
{
    if (val == "*")
        return;
    const std::size_t dash = val.find('-');
    const std::string_view v(val);
    auto a = parseDigits(v.substr(0, dash), kU32Max);
    auto b = dash == std::string::npos ? a
                                       : parseDigits(v.substr(dash + 1),
                                                     kU32Max);
    if (!a || !b)
        panic("fault plan line %d: bad range '%s'", line_no, val.c_str());
    *lo = static_cast<std::uint32_t>(*a);
    *hi = static_cast<std::uint32_t>(*b);
    if (*lo > *hi)
        panic("fault plan line %d: inverted range '%s'", line_no,
              val.c_str());
}

std::uint32_t
parseU32(const std::string &val, int line_no, const char *key)
{
    auto v = parseDigits(val, kU32Max);
    if (!v)
        panic("fault plan line %d: bad %s value '%s'", line_no, key,
              val.c_str());
    return static_cast<std::uint32_t>(*v);
}

} // namespace

FaultPlan
parsePlan(const std::string &text)
{
    FaultPlan plan;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;

    while (std::getline(in, line)) {
        ++line_no;
        if (std::size_t hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);

        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word))
            continue; // blank / comment-only line

        if (word == "seed") {
            std::string val;
            if (!(ls >> val))
                panic("fault plan line %d: 'seed' needs a value", line_no);
            auto seed =
                parseDigits(val);
            if (!seed)
                panic("fault plan line %d: bad seed value '%s'", line_no,
                      val.c_str());
            plan.seed = *seed;
            continue;
        }
        if (word != "fault") {
            panic("fault plan line %d: expected 'seed' or 'fault', got "
                  "'%s'",
                  line_no, word.c_str());
        }

        std::string kind;
        if (!(ls >> kind))
            panic("fault plan line %d: 'fault' needs a kind", line_no);
        FaultSpec spec;
        spec.kind = kindFromString(kind, line_no);

        while (ls >> word) {
            std::size_t eq = word.find('=');
            if (eq == std::string::npos) {
                panic("fault plan line %d: expected key=value, got '%s'",
                      line_no, word.c_str());
            }
            std::string key = word.substr(0, eq);
            std::string val = word.substr(eq + 1);
            if (key == "where") {
                spec.where = val;
            } else if (key == "block") {
                parseRange(val, line_no, &spec.blockLo, &spec.blockHi);
            } else if (key == "page") {
                parseRange(val, line_no, &spec.pageLo, &spec.pageHi);
            } else if (key == "nth") {
                spec.nth = parseU32(val, line_no, "nth");
                if (spec.nth == 0)
                    panic("fault plan line %d: nth counts from 1",
                          line_no);
            } else if (key == "count") {
                spec.count = parseU32(val, line_no, "count");
            } else if (key == "bits") {
                spec.bits = parseU32(val, line_no, "bits");
            } else if (key == "level") {
                spec.level = parseU32(val, line_no, "level");
            } else if (key == "extra_us") {
                spec.extraBusy = static_cast<Tick>(
                                     parseU32(val, line_no, "extra_us")) *
                                 ticks::perUs;
            } else if (key == "suppress_us") {
                spec.suppressTicks =
                    static_cast<Tick>(
                        parseU32(val, line_no, "suppress_us")) *
                    ticks::perUs;
            } else {
                panic("fault plan line %d: unknown key '%s'", line_no,
                      key.c_str());
            }
        }
        plan.faults.push_back(std::move(spec));
    }
    return plan;
}

FaultPlan
loadPlanFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        panic("cannot open fault plan '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return parsePlan(buf.str());
}

} // namespace babol::fault
