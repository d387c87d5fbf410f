#include "replay.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "obs/sim_context.hh"
#include "sim/parse.hh"

namespace babol::host::replay {

namespace {

/** True for lines carrying no record: blank or `#` comments. */
bool
skippable(const std::string &line)
{
    for (char c : line) {
        if (c == '#')
            return true;
        if (!std::isspace(static_cast<unsigned char>(c)))
            return false;
    }
    return true;
}

} // namespace

std::vector<TraceOp>
parseTrace(std::istream &in, const std::string &what)
{
    std::vector<TraceOp> ops;
    std::string line;
    std::size_t lineno = 0;
    double prev_us = -1.0;
    while (std::getline(in, line)) {
        ++lineno;
        if (skippable(line))
            continue;

        std::istringstream ls(line);
        double t_us = 0.0;
        std::string op, lba_tok, sectors_tok;
        if (!(ls >> t_us >> op >> lba_tok >> sectors_tok)) {
            fatal("%s:%zu: malformed trace record \"%s\" "
                        "(want: <time_us> <R|W> <lba> <sectors>)",
                        what.c_str(), lineno, line.c_str());
        }
        std::string trailing;
        if (ls >> trailing) {
            fatal("%s:%zu: trailing garbage \"%s\" after record",
                        what.c_str(), lineno, trailing.c_str());
        }
        if (op != "R" && op != "W" && op != "r" && op != "w") {
            fatal("%s:%zu: bad op \"%s\" (want R or W)",
                        what.c_str(), lineno, op.c_str());
        }
        if (t_us < 0.0 || t_us < prev_us) {
            fatal("%s:%zu: timestamps must be non-negative and "
                        "non-decreasing (%.3f after %.3f)",
                        what.c_str(), lineno, t_us, prev_us);
        }
        // 2^64 ticks: anything at or above it (or NaN) does not fit a
        // Tick, and converting it would be undefined behaviour.
        const double at = t_us * static_cast<double>(ticks::perUs);
        if (!(at < 0x1p64)) {
            fatal("%s:%zu: timestamp %g us overflows the tick range",
                  what.c_str(), lineno, t_us);
        }
        const auto lba = parseDigits(lba_tok);
        if (!lba) {
            fatal("%s:%zu: bad lba \"%s\"", what.c_str(), lineno,
                  lba_tok.c_str());
        }
        const auto sectors = parseDigits(sectors_tok, 1u << 20);
        if (!sectors || *sectors == 0) {
            fatal("%s:%zu: bad length \"%s\" sectors", what.c_str(),
                  lineno, sectors_tok.c_str());
        }
        prev_us = t_us;

        TraceOp rec;
        rec.at = static_cast<Tick>(at);
        rec.write = (op == "W" || op == "w");
        rec.lba = *lba;
        rec.sectors = static_cast<std::uint32_t>(*sectors);
        ops.push_back(rec);
    }
    if (ops.empty())
        fatal("%s: trace holds no records", what.c_str());
    return ops;
}

std::vector<TraceOp>
loadTraceFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        fatal("cannot open trace file %s", path.c_str());
    return parseTrace(f, path);
}

ReplayEngine::ReplayEngine(EventQueue &eq, const std::string &name,
                           nvme::NvmeFrontEnd &fe,
                           std::vector<TraceOp> ops, ReplayConfig cfg)
    : SimObject(eq, name), fe_(fe), ops_(std::move(ops)), cfg_(cfg),
      latencyUs_(name + ".latency_us"), metrics_(eq.context().metrics, name)
{
    babol_assert(!ops_.empty(), "replaying an empty trace");
    babol_assert(cfg_.slots >= 1, "replay needs a staging slot");
    babol_assert(cfg_.timeScale > 0.0, "non-positive replay time scale");

    // One staging slot covers the largest record in the trace.
    std::uint32_t max_sectors = 1;
    for (const TraceOp &op : ops_)
        max_sectors = std::max(max_sectors, op.sectors);
    slotStride_ = static_cast<std::uint64_t>(max_sectors) *
                  fe_.hic().sectorBytes();
    babol_assert(cfg_.dramBase + slotStride_ * cfg_.slots <=
                     fe_.hic().dram().size(),
                 "replay staging slots overflow DRAM");

    track_ = obs::interner().intern(name);
    lblSubmit_ = obs::interner().intern("replay.submit");

    metrics_.value("submitted", [this] { return submitCursor_; });
    metrics_.value("completed", [this] { return completed_; });
    metrics_.value("errors", [this] { return errors_; });
    metrics_.value("late_ios", [this] { return lateIos_; });
    metrics_.distribution("latency_us", &latencyUs_);
}

double
ReplayEngine::iops() const
{
    Tick el = elapsed();
    if (el == 0)
        return 0.0;
    return static_cast<double>(completed_) / ticks::toSec(el);
}

void
ReplayEngine::start(std::function<void()> on_done)
{
    onDone_ = std::move(on_done);
    startTick_ = curTick();

    // Arm one pace event per record up front: record i becomes *due* at
    // start + scaled gap from the trace head. Due records submit in
    // strict file order; a full SQ defers them (late), never reorders.
    const Tick t0 = ops_.front().at;
    dueTicks_.reserve(ops_.size());
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        Tick delay = static_cast<Tick>(
            static_cast<double>(ops_[i].at - t0) * cfg_.timeScale);
        dueTicks_.push_back(startTick_ + delay);
        scheduleIn(delay,
                   [this] {
                       ++due_;
                       pushReady();
                   },
                   "replay pace");
    }
}

void
ReplayEngine::pushReady()
{
    while (submitCursor_ < due_) {
        const TraceOp &op = ops_[submitCursor_];
        const std::size_t idx = submitCursor_;

        nvme::NvmeCommand cmd;
        cmd.write = op.write;
        const std::uint64_t total = fe_.hic().totalSectors();
        cmd.slba = cfg_.wrapLba ? op.lba % total : op.lba;
        cmd.sectors = op.sectors;
        if (cmd.slba + cmd.sectors > total) {
            if (!cfg_.wrapLba)
                fatal("trace record %zu beyond device end", idx);
            cmd.sectors = static_cast<std::uint32_t>(total - cmd.slba);
        }
        cmd.prp = cfg_.dramBase + (idx % cfg_.slots) * slotStride_;
        cmd.tenant = cfg_.tenant;

        const Tick submit_tick = curTick();
        bool ok = fe_.trySubmit(
            cfg_.queue, cmd, [this, submit_tick](bool io_ok) {
                if (!io_ok)
                    ++errors_;
                ++completed_;
                latencyUs_.sample(ticks::toUs(curTick() - submit_tick));
                if (completed_ == ops_.size()) {
                    endTick_ = curTick();
                    if (onDone_)
                        onDone_();
                }
            });
        if (!ok) {
            // SQ full: park until the CQ drain frees slots, keeping
            // head-of-line order.
            if (!waitingForSpace_) {
                waitingForSpace_ = true;
                fe_.onSqSpace(cfg_.queue, [this] {
                    waitingForSpace_ = false;
                    pushReady();
                });
            }
            return;
        }
        eq_.context().trace.instant(
            track_, lblSubmit_, curTick(), obs::kNoSpan,
            encodeArg(cmd.write, cmd.sectors, cmd.slba));
        if (curTick() > dueTicks_[idx])
            ++lateIos_;
        ++submitCursor_;
    }
}

} // namespace babol::host::replay
