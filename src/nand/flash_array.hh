/**
 * @file
 * The Flash Array behind one LUN: cell storage, wear accounting, and
 * bit-error injection.
 *
 * Storage is sparse (only programmed pages allocate memory) so full-size
 * 16 KiB/page geometries simulate cheaply. Reads return *actually
 * corrupted* bytes: the array draws a binomial error count per ECC
 * codeword from a wear- and read-retry-level-dependent raw bit error
 * rate, flips those bits in the returned copy, and reports the flipped
 * positions as sideband metadata. The controller-side ECC model uses the
 * sideband to "correct" (un-flip) up to its capability — the standard
 * simulation shortcut for a real BCH/LDPC decoder.
 */

#ifndef BABOL_NAND_FLASH_ARRAY_HH
#define BABOL_NAND_FLASH_ARRAY_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geometry.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace babol::nand {

/** Outcome of a page program or block erase. */
enum class ArrayStatus : std::uint8_t {
    Ok,
    Fail,          //!< program/erase verify failed (status FAIL bit)
    ProtocolError, //!< out-of-order program, program to non-erased page
};

/** Result of loading a page from the array into a page register. */
struct PageLoad
{
    /** Page bytes (data + spare) with injected bit errors applied. */
    std::vector<std::uint8_t> data;
    /** Global bit positions that were flipped (ECC-model sideband). */
    std::vector<std::uint32_t> flippedBits;
    /** True when the page had been programmed (else reads as 0xFF). */
    bool programmed = false;
};

/** Knobs of the reliability model. */
struct ReliabilityParams
{
    /** Raw bit error rate of a fresh TLC block at the optimal level. */
    double baseRber = 2e-5;
    /** P/E cycles after which RBER has roughly doubled. */
    double wearKneePe = 1500.0;
    /** Multiplier per step of read-retry level distance from optimal. */
    double retryLevelPenalty = 2.2;
    /** P/E cycles per step of optimal-read-level drift. */
    double levelDriftPe = 800.0;
    /** RBER multiplier for blocks in SLC mode. */
    double slcRberFactor = 0.04;
    /** Rated P/E endurance in TLC mode (erase may fail beyond). */
    std::uint32_t endurancePe = 3000;
    /** Endurance multiplier in SLC mode. */
    double slcEnduranceFactor = 10.0;
    /** Retention: simulated milliseconds since program after which the
     *  RBER has roughly doubled. Charge leaks on a wall-clock scale in
     *  real NAND; campaigns compress it onto the tick clock. */
    double retentionKneeMs = 5000.0;
    /** Read disturb: sibling reads of a block after which a page's RBER
     *  has roughly doubled (resets on erase / refresh). */
    double readDisturbKneeReads = 50000.0;
};

class FlashArray
{
  public:
    FlashArray(const Geometry &geo, std::uint64_t seed,
               ReliabilityParams rel = {});

    /**
     * Erase one block (all planes use plane-interleaved block numbering,
     * so @p block addresses exactly one physical block in one plane).
     *
     * @param block   block index within the LUN
     * @param slcMode leave the block in SLC mode after the erase
     */
    ArrayStatus eraseBlock(std::uint32_t block, bool slcMode);

    /**
     * Program one page. Enforces NAND constraints: the page must be in an
     * erased block, pages within a block must be programmed in order, and
     * a page can be programmed only once per erase (NOP=1).
     */
    ArrayStatus programPage(std::uint32_t block, std::uint32_t page,
                            std::span<const std::uint8_t> data,
                            Tick now = 0);

    /**
     * Load a page into a register copy, injecting bit errors.
     *
     * @param retryLevel read-retry voltage level in use
     * @param slcRead    pSLC read (valid on SLC-mode blocks)
     * @param now        current tick, for the retention-age term of the
     *                   RBER model; also bumps the block's read-disturb
     *                   counter
     */
    PageLoad readPage(std::uint32_t block, std::uint32_t page,
                      std::uint32_t retryLevel, bool slcRead,
                      Tick now = 0);

    /** readPage() into @p load, reusing its buffers' storage. */
    void readPage(std::uint32_t block, std::uint32_t page,
                  std::uint32_t retryLevel, bool slcRead, Tick now,
                  PageLoad &load);

    /** P/E cycles a block has seen. */
    std::uint32_t peCycles(std::uint32_t block) const;

    /** True when the block is currently in SLC mode. */
    bool isSlcBlock(std::uint32_t block) const;

    /** True when the block has been marked bad by a failed erase. */
    bool isBadBlock(std::uint32_t block) const;

    /**
     * The read-retry level at which this block's RBER is minimal; drifts
     * upward with wear. Exposed for tests and the retry-op example.
     */
    std::uint32_t optimalRetryLevel(std::uint32_t block) const;

    /** Effective RBER for a block at a retry level (model introspection).
     *  Wear and retry-level terms only — see pageRber() for the
     *  per-page retention and disturb terms layered on top. */
    double effectiveRber(std::uint32_t block, std::uint32_t retryLevel,
                         bool slcRead) const;

    /** Full per-page RBER including retention age and read disturb. */
    double pageRber(std::uint32_t block, std::uint32_t page,
                    std::uint32_t retryLevel, bool slcRead,
                    Tick now) const;

    /** Sibling reads the block has absorbed since this page was
     *  programmed (0 for unprogrammed pages). */
    std::uint64_t readDisturb(std::uint32_t block,
                              std::uint32_t page) const;

    /** Ticks since the page was programmed (0 for unprogrammed). */
    Tick retentionAge(std::uint32_t block, std::uint32_t page,
                      Tick now) const;

    /** Artificially age a block (tests/benches). */
    void agePeCycles(std::uint32_t block, std::uint32_t cycles);

    /**
     * Truncate an in-flight program at @p page: the cells end up holding
     * deterministic garbage (a torn page — its OOB record fails CRC on
     * the mount scan) and the page is consumed (NOP=1 still holds, the
     * next program lands on the following page). No-op when the page was
     * already committed or is not the block's program frontier.
     */
    void tearPage(std::uint32_t block, std::uint32_t page);

    /**
     * Adopt @p other's persistent cell state (programmed pages, program
     * frontiers, wear counters, bad-block marks). This is the simulated
     * power cycle: a fresh world's array inherits exactly what the cells
     * held, while every volatile structure (FTL map, DRAM buffers)
     * starts empty. Geometries must match; the RNG stream is *not*
     * copied (it is seeded by the new world's config).
     */
    void copyStateFrom(const FlashArray &other);

    /** Next programmable page index of a block (the program frontier). */
    std::uint32_t nextPage(std::uint32_t block) const;

    const Geometry &geometry() const { return geo_; }

  private:
    struct BlockState
    {
        std::uint32_t peCycles = 0;
        std::uint32_t nextPage = 0; //!< next programmable page index
        std::uint64_t reads = 0;    //!< page reads since last erase
        bool slc = false;
        bool bad = false;
    };

    /** A programmed page: cell image plus the media-decay baselines the
     *  RBER model measures against. */
    struct StoredPage
    {
        std::vector<std::uint8_t> bytes;
        Tick programTick = 0;
        std::uint64_t readsBaseline = 0; //!< block reads at program time
    };

    std::uint64_t pageKey(std::uint32_t block, std::uint32_t page) const;
    void checkBlock(std::uint32_t block) const;
    void checkPage(std::uint32_t block, std::uint32_t page) const;

    Geometry geo_;
    ReliabilityParams rel_;
    Rng rng_;
    std::vector<BlockState> blocks_;
    std::unordered_map<std::uint64_t, StoredPage> pages_;
    /** Storage of erased pages, reused by the next programs so steady
     *  program/erase cycling allocates nothing. */
    std::vector<decltype(pages_)::node_type> erasedPages_;
};

} // namespace babol::nand

#endif // BABOL_NAND_FLASH_ARRAY_HH
