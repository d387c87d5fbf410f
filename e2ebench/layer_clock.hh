/**
 * @file
 * Exclusive host-time accounting for the traced run.
 *
 * The adapter opens a frame around every call it makes across a layer
 * boundary (workload -> FTL, FTL -> controller, controller -> FTL
 * completion, workload -> NVMe front end, and back into the
 * benchmark's own callbacks). A frame's self time is its duration
 * minus the frames nested inside it, so each layer is charged only for
 * its own code. Time spent in the event loop outside any frame (the
 * controllers' events, the bus, the LUNs, the CPU model) is charged to
 * no boundary layer.
 */

#ifndef E2EBENCH_LAYER_CLOCK_HH
#define E2EBENCH_LAYER_CLOCK_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace e2e {

enum class Layer : std::uint8_t {
    Host,  //!< NVMe front end submissions
    Ftl,   //!< PageFtl calls and its flash-op completions
    Core,  //!< controller submit()
    Bench, //!< the benchmark's own generators and checkers
    Count
};

class LayerClock
{
  public:
    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    void
    enter(Layer l)
    {
        stack_.push_back({l, nowNs(), 0});
    }

    void
    leave()
    {
        const Frame f = stack_.back();
        stack_.pop_back();
        const std::int64_t total = nowNs() - f.start;
        self_[idx(f.layer)] += total - f.child;
        if (!stack_.empty())
            stack_.back().child += total;
    }

    /** Zero the totals (between phases, with no frame open). */
    void
    reset()
    {
        self_ = {};
    }

    std::int64_t selfNs(Layer l) const { return self_[idx(l)]; }

    /** Whether the decorator records per-op samples right now. */
    bool measuring() const { return measuring_; }
    void setMeasuring(bool on) { measuring_ = on; }

    /** RAII frame; a null clock makes it free. */
    class Scope
    {
      public:
        Scope(LayerClock *c, Layer l) : c_(c)
        {
            if (c_)
                c_->enter(l);
        }
        ~Scope()
        {
            if (c_)
                c_->leave();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        LayerClock *c_;
    };

  private:
    static constexpr std::size_t kLayers =
        static_cast<std::size_t>(Layer::Count);
    static std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }

    struct Frame
    {
        Layer layer;
        std::int64_t start;
        std::int64_t child;
    };

    std::vector<Frame> stack_;
    std::array<std::int64_t, kLayers> self_{};
    bool measuring_ = false;
};

} // namespace e2e

#endif // E2EBENCH_LAYER_CLOCK_HH
