/**
 * @file
 * Central metrics registry: every Counter / Distribution / polled value
 * in the simulator, registered once under a hierarchical name
 * ("ssd.ch0.pkg2.lun0.reads"), queryable as snapshots and deltas, and
 * dumpable as JSON in one call — the bench harnesses report through
 * this instead of hand-rolled printing.
 *
 * The registry stores *references*: producers keep owning their stats
 * (zero overhead on their hot paths) and deregister on destruction via
 * the RAII MetricsGroup. Registrations carry a serial token so a name
 * re-registered by a newer object is not clobbered when the older
 * object's group finally dies (sequentially-created test fixtures).
 */

#ifndef BABOL_OBS_METRICS_HH
#define BABOL_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace babol::obs {

/** One read-only view of the registry at a point in time. */
struct MetricsSnapshot
{
    struct Scalar
    {
        std::string name;
        std::uint64_t value = 0;
    };
    struct Dist
    {
        std::string name;
        std::uint64_t count = 0;
        double sum = 0, mean = 0, min = 0, max = 0;
        double p50 = 0, p95 = 0, p99 = 0, p999 = 0;
    };

    /** Simulated time of the capture (0 when the capturer had no
     *  queue in scope); emitted top-level as "sim_ticks". */
    std::uint64_t simTicks = 0;

    std::vector<Scalar> scalars; //!< sorted by name
    std::vector<Dist> dists;     //!< sorted by name

    const Scalar *findScalar(std::string_view name) const;
    const Dist *findDist(std::string_view name) const;

    /** Scalar value by name, or @p fallback when absent. */
    std::uint64_t scalar(std::string_view name,
                         std::uint64_t fallback = 0) const;
};

class MetricsRegistry
{
  public:
    using ValueFn = std::function<std::uint64_t()>;

    /** Token identifying one registration (for exact deregistration). */
    struct Token
    {
        std::string name;
        std::uint64_t serial = 0;
    };

    Token addCounter(std::string name, const Counter *counter);
    Token addValue(std::string name, ValueFn fn);
    Token addDistribution(std::string name, const Distribution *dist);

    /** Remove iff @p token still owns the name (stale tokens no-op). */
    void remove(const Token &token);

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return entries_.size();
    }

    MetricsSnapshot snapshot() const;

    /**
     * later - earlier for scalars (names missing from @p earlier count
     * from 0; names missing from @p later are dropped). Distributions
     * are carried from @p later unchanged — they do not subtract.
     */
    static MetricsSnapshot delta(const MetricsSnapshot &later,
                                 const MetricsSnapshot &earlier);

    /** One-call JSON dump of a fresh snapshot. */
    void writeJson(std::ostream &os) const;

    static void writeJson(std::ostream &os, const MetricsSnapshot &snap);

  private:
    struct Entry
    {
        enum class Kind : std::uint8_t { Counter, Value, Dist } kind;
        const Counter *counter = nullptr;
        ValueFn fn;
        const Distribution *dist = nullptr;
        std::uint64_t serial = 0;
    };

    Token insert(std::string name, Entry entry);

    /**
     * Guards the registration map, NOT the referenced stats: fleet
     * members register concurrently into private registries.
     * Counters/Distributions stay unsynchronized — each belongs to
     * exactly one device and is only read at quiesced points.
     */
    mutable std::mutex mu_;
    std::map<std::string, Entry, std::less<>> entries_;
    std::uint64_t nextSerial_ = 1;
};

/**
 * RAII bundle of registrations sharing a name prefix. Members register
 * as "<prefix>.<leaf>" and everything deregisters when the group (i.e.
 * the owning component) is destroyed.
 */
class MetricsGroup
{
  public:
    MetricsGroup(MetricsRegistry &reg, std::string prefix)
        : reg_(reg), prefix_(std::move(prefix))
    {}

    ~MetricsGroup()
    {
        for (const auto &tok : tokens_)
            reg_.remove(tok);
    }

    MetricsGroup(const MetricsGroup &) = delete;
    MetricsGroup &operator=(const MetricsGroup &) = delete;

    const std::string &prefix() const { return prefix_; }

    void
    counter(std::string_view leaf, const Counter *c)
    {
        tokens_.push_back(reg_.addCounter(join(leaf), c));
    }

    void
    value(std::string_view leaf, MetricsRegistry::ValueFn fn)
    {
        tokens_.push_back(reg_.addValue(join(leaf), std::move(fn)));
    }

    void
    distribution(std::string_view leaf, const Distribution *d)
    {
        tokens_.push_back(reg_.addDistribution(join(leaf), d));
    }

  private:
    std::string
    join(std::string_view leaf) const
    {
        std::string s;
        s.reserve(prefix_.size() + 1 + leaf.size());
        s += prefix_;
        s += '.';
        s.append(leaf.data(), leaf.size());
        return s;
    }

    MetricsRegistry &reg_;
    std::string prefix_;
    std::vector<MetricsRegistry::Token> tokens_;
};

} // namespace babol::obs

#endif // BABOL_OBS_METRICS_HH
