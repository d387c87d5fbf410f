/**
 * @file
 * The machinery the crash and reliability campaigns (and the recovery
 * tests) run on: a small one-channel device rig with stamped writes,
 * read-back, mount, power cut and cell transplant; the QD8 stamped
 * workload with a hook on each acknowledgement; and the one read-back
 * pass that holds a device against its ledger.
 */

#ifndef BABOL_CAMPAIGN_RIG_HH
#define BABOL_CAMPAIGN_RIG_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/ledger.hh"
#include "core/controller.hh"
#include "ftl/ftl.hh"
#include "sim/random.hh"

namespace babol::campaign {

/** DRAM address where stamped pages are staged (one page per queue
 *  slot from here up) and read back. */
constexpr std::uint64_t kHostBase = 16 << 20;

/**
 * One complete controller stack over a small device: @p chips Hynix
 * chips of 32 blocks x 8 pages on one 200 MT/s channel, the @p flavor
 * controller (ssd::makeController) with a read-retry budget of 4, and
 * a page-mapped FTL. write(), read(), readsBackAs() and mount() run the
 * queue dry and panic if the operation never completed.
 */
struct Rig
{
    EventQueue eq;
    core::ChannelSystem sys;
    std::unique_ptr<core::ChannelController> ctrl;
    ftl::PageFtl ftl;

    explicit Rig(std::uint32_t chips, const ftl::FtlConfig &fcfg = smallFtl(),
                 const std::string &flavor = "hw-async");

    /** 8 managed blocks per chip, 25% overprovisioning. */
    static ftl::FtlConfig smallFtl();

    /** Stage the (lpn, gen) stamp at kHostBase in the staging DRAM. */
    void stage(std::uint64_t lpn, std::uint64_t gen);
    /** Stage and write (lpn, gen), run to completion; the host ack. */
    bool write(std::uint64_t lpn, std::uint64_t gen);
    /** Read @p lpn into kHostBase, run to completion; true on success. */
    bool read(std::uint64_t lpn);
    /** Read @p lpn back and compare it with the (lpn, gen) stamp. */
    bool readsBackAs(std::uint64_t lpn, std::uint64_t gen);
    /** Rebuild the FTL from the cells (OOB scan); true on success. */
    bool mount();
    /** Cut power on every chip: in-flight programs tear. */
    void powerCut();
    /** Copy this rig's cells into @p next, its "next boot". */
    void transplantInto(Rig &next);
};

/**
 * The campaigns' host workload: @p ops random stamped operations over
 * the ledger's extent, eight in flight (one DRAM staging page per
 * slot). Every write's generation is issued and acknowledged in the
 * ledger; with readEvery = N, every Nth op whose LPN holds an
 * acknowledged generation re-reads and checks it instead.
 */
class StampedWorkload
{
  public:
    static constexpr std::uint32_t kQueueDepth = 8;

    StampedWorkload(EventQueue &eq, ftl::PageFtl &ftl, Ledger &led,
                    std::uint64_t ops, std::uint64_t seed);
    // In-flight callbacks hold this object's address.
    StampedWorkload(const StampedWorkload &) = delete;
    StampedWorkload &operator=(const StampedWorkload &) = delete;

    std::uint32_t readEvery = 0;

    /** Runs after each acknowledgement with the ack count; returning
     *  true cuts the run there, with the rest still in flight. */
    std::function<bool(std::uint64_t acked)> onAck;

    /** Runs once the last op completes (stop background work here). */
    std::function<void()> onDrain;

    /** Issue the first eight ops and run until the cut or idle. */
    void run();

    bool cut() const { return cut_; }
    std::uint64_t ops() const { return ops_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t reads() const { return reads_; }
    std::uint64_t readFailures() const { return readFailures_; }
    std::uint64_t readCorrupt() const { return readCorrupt_; }

  private:
    void issue(std::uint32_t slot);

    EventQueue &eq_;
    ftl::PageFtl &ftl_;
    Ledger &led_;
    const std::uint64_t total_;
    Rng rng_;
    std::vector<std::uint8_t> page_;
    bool cut_ = false;
    std::uint64_t ops_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t readFailures_ = 0;
    std::uint64_t readCorrupt_ = 0;
};

/** Verdict of a read-back pass over the ledger's extent. */
struct ReadBack
{
    std::uint64_t mapped = 0;
    std::uint64_t verified = 0; //!< mapped pages judged Valid
    std::uint64_t lost = 0;     //!< acked but unmapped, or unreadable
    std::uint64_t stale = 0;    //!< Stale pages
    std::uint64_t corrupt = 0;  //!< NoStamp, NeverIssued, Corrupt pages
    /** Per LPN, the generation read back (0 = none). */
    std::vector<std::uint64_t> gens;
    /** One line per violation, in LPN order. */
    std::vector<std::string> violations;
};

/** Read every mapped LPN of the ledger's extent back, one at a time,
 *  and judge it against the ledger. */
ReadBack readBack(EventQueue &eq, ftl::PageFtl &ftl, const Ledger &led);

} // namespace babol::campaign

#endif // BABOL_CAMPAIGN_RIG_HH
