/**
 * @file
 * The modeled interconnect hop between the host complex (HIC / FTL)
 * and a channel controller.
 *
 * In the paper's Fig. 1 the FTL talks to the per-channel storage
 * controllers over an on-chip interconnect; the cheapest thing that can
 * cross it is a command handoff, which on the flash side costs at least
 * chip-enable setup plus a command/address cycle pair plus tWB before
 * anything observable happens on the channel. Ssd charges that floor
 * on both edges of every request: the dispatch to the channel and the
 * completion back to the host.
 *
 * The floor is clamped from below at 50 ns so a degenerate timing
 * preset (all zeros) still yields a nonzero hop.
 */

#ifndef BABOL_SSD_LOOKAHEAD_HH
#define BABOL_SSD_LOOKAHEAD_HH

#include <algorithm>

#include "nand/timing.hh"
#include "sim/types.hh"

namespace babol::ssd {

/** Minimum host<->channel hop in ticks for @p t (>= 50 ns). */
inline Tick
interconnectHop(const nand::TimingParams &t)
{
    const Tick floor = 50 * ticks::perNs;
    const Tick hop = t.tCs + 2 * t.tCmdCycleDdr + t.tWb;
    return std::max(hop, floor);
}

} // namespace babol::ssd

#endif // BABOL_SSD_LOOKAHEAD_HH
