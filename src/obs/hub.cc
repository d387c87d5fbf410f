#include "hub.hh"

#include "label.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace babol::obs {

Interner &
interner()
{
    static Interner interner;
    return interner;
}

ChipLabels::ChipLabels(const char *fmt, std::uint32_t chips)
    : ids_(chips, Interner::kInvalid)
{
    text_.reserve(chips);
    for (std::uint32_t c = 0; c < chips; ++c)
        text_.push_back(strfmt(fmt, c));
}

MetricsGroup &
registerEventQueueMetrics(MetricsGroup &group, const EventQueue &eq)
{
    const EventQueue *q = &eq;
    group.value("pending", [q] {
        return static_cast<std::uint64_t>(q->pendingCount());
    });
    group.value("pool_capacity",
                [q] { return q->poolStats().poolCapacity; });
    group.value("pool_live", [q] { return q->poolStats().poolLive; });
    group.value("pool_high_water",
                [q] { return q->poolStats().poolHighWater; });
    group.value("inline_callbacks",
                [q] { return q->poolStats().inlineCallbacks; });
    group.value("outline_callbacks",
                [q] { return q->poolStats().outlineCallbacks; });
    group.value("wheel_inserts",
                [q] { return q->poolStats().wheelInserts; });
    group.value("heap_inserts", [q] { return q->poolStats().heapInserts; });
    group.value("ready_inserts",
                [q] { return q->poolStats().readyInserts; });
    group.value("compactions", [q] { return q->poolStats().compactions; });
    return group;
}

} // namespace babol::obs
