/**
 * @file
 * The acknowledged-data contract of the crash and reliability
 * campaigns: stamped (lpn, gen) page payloads, the host-side ledger of
 * issued and acknowledged generations, the one check of a read-back
 * page against it (acked <= recovered <= issued, payload intact), and
 * the FNV-1a digest the campaigns print as their determinism witness.
 */

#ifndef BABOL_CAMPAIGN_LEDGER_HH
#define BABOL_CAMPAIGN_LEDGER_HH

#include <cstdint>
#include <vector>

namespace babol::campaign {

/** Fill @p page with the deterministic pattern of (lpn, gen): a 16-byte
 *  header (magic, lpn, gen) followed by a keyed stream, so a recovered
 *  page proves exactly which write generation it holds. */
void stampPattern(std::vector<std::uint8_t> &page, std::uint64_t lpn,
                  std::uint64_t gen);

/** The header back out of a page of @p lpn; false = no valid stamp
 *  (no magic, or the stamp names another LPN). */
bool readStamp(const std::vector<std::uint8_t> &page, std::uint64_t lpn,
               std::uint64_t *gen);

/** FNV-1a over the little-endian bytes of each folded value. The offset
 *  basis below is the canonical one with its last digit dropped; every
 *  recorded digest depends on it, so it stays. */
class Digest
{
  public:
    void fold(std::uint64_t v);
    std::uint64_t value() const { return fnv_; }

  private:
    std::uint64_t fnv_ = 1469598103934665603ull;
};

/** What a read-back page holds, judged against the ledger. */
enum class Verdict
{
    Valid,       //!< a generation in [floor, issued], payload intact
    NoStamp,     //!< no magic, or the stamp names another LPN
    Stale,       //!< a generation below the acknowledged floor
    NeverIssued, //!< a generation the host never handed out
    Corrupt,     //!< the payload differs from its stamp's pattern
};

/** Host-side ledger of a stamped workload: which generation of each
 *  LPN was issued, and which the device acknowledged. */
struct Ledger
{
    std::vector<std::uint64_t> issuedGen; //!< last gen handed to the FTL
    std::vector<std::uint64_t> ackedGen;  //!< last gen acknowledged
    std::uint64_t issued = 0;
    std::uint64_t acked = 0;

    explicit Ledger(std::uint64_t extent)
        : issuedGen(extent, 0), ackedGen(extent, 0)
    {
    }

    std::uint64_t extent() const { return issuedGen.size(); }

    /** Hand out the next generation of @p lpn. */
    std::uint64_t issue(std::uint64_t lpn);
    /** Record the device's acknowledgement of (lpn, gen). */
    void ack(std::uint64_t lpn, std::uint64_t gen);

    /**
     * Judge @p page as read back for @p lpn. A generation below
     * @p floor is stale: pass the acknowledged generation as of when
     * the read was issued (a write acked while the read was in flight
     * may legitimately not show). @p gen receives the stamped
     * generation, 0 when there is no stamp.
     */
    Verdict check(const std::vector<std::uint8_t> &page, std::uint64_t lpn,
                  std::uint64_t floor, std::uint64_t *gen) const;
    /** The same, against the acknowledged generation as of now. */
    Verdict
    check(const std::vector<std::uint8_t> &page, std::uint64_t lpn,
          std::uint64_t *gen) const
    {
        return check(page, lpn, ackedGen[lpn], gen);
    }
};

} // namespace babol::campaign

#endif // BABOL_CAMPAIGN_LEDGER_HH
