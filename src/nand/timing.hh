/**
 * @file
 * NAND timing parameters and the three commercial package presets the
 * paper evaluates (Table I): SK hynix, Toshiba (Kioxia), and Micron parts
 * on Cosmos+ SO-DIMMs.
 *
 * Array timings (tR/tPROG/tBERS) come from the paper where given; the
 * remaining interface timings use representative ONFI 5.1 NV-DDR2 values.
 * All are configuration — a BABOL user brings their own datasheet.
 */

#ifndef BABOL_NAND_TIMING_HH
#define BABOL_NAND_TIMING_HH

#include <cstdint>
#include <string>

#include "geometry.hh"
#include "onfi.hh"
#include "sim/types.hh"

namespace babol::nand {

/**
 * Timing parameters of one package. Naming follows the ONFI datasheet
 * convention (tXY). Categories per the paper's §IV-B:
 *  1. intra-segment waits — folded into μFSM cycle timing,
 *  2. mandatory waits adjacent to a segment (tWB, tWHR, tCCS, tADL) —
 *     also the μFSMs' responsibility,
 *  3. inter-segment waits (tR, tPROG, tBERS) — the operation logic's
 *     responsibility (polled via READ STATUS or timed).
 */
struct TimingParams
{
    // --- Array operation times (category 3) ---
    Tick tR = 0;     //!< page read (array -> page register)
    Tick tProg = 0;  //!< page program
    Tick tBers = 0;  //!< block erase
    Tick tRst = 0;   //!< reset while idle
    Tick tFeat = 0;  //!< SET/GET FEATURES execution
    Tick tRParam = 0; //!< parameter-page fetch

    // --- Mandatory adjacent waits (category 2) ---
    Tick tWb = 0;   //!< WE# high to busy
    Tick tWhr = 0;  //!< command cycle to data output (READ STATUS)
    Tick tCcs = 0;  //!< change column setup
    Tick tAdl = 0;  //!< address cycle to data loading (SET FEATURES)
    Tick tRr = 0;   //!< ready to first read cycle
    Tick tRhw = 0;  //!< data output to command/address cycle turnaround
    Tick tCbsyR = 0; //!< cache-read register turnaround busy time
    Tick tCbsyW = 0; //!< cache-program interface busy time

    // --- Cycle-level waits (category 1, folded into segment length) ---
    Tick tCmdCycleSdr = 0;  //!< one command/address cycle in SDR
    Tick tCmdCycleDdr = 0;  //!< one command/address cycle in NV-DDR2
    Tick tCs = 0;           //!< chip-enable setup before first cycle
    Tick tCh = 0;           //!< chip-enable hold after last cycle

    // --- Behaviour modifiers ---
    double tRSigma = 0.05;    //!< relative std-dev of actual tR
    double slcReadFactor = 0.4;   //!< pSLC tR multiplier
    double slcProgFactor = 0.25;  //!< pSLC tProg multiplier
    double slcEraseFactor = 0.7;  //!< pSLC tBers multiplier
    Tick suspendLatency = 0;  //!< time to park a suspended array op
    Tick resumeOverhead = 0;  //!< extra array time after resume
};

/** Vendor identifier (drives quirks and the READ ID bytes). */
enum class Vendor : std::uint8_t { Hynix, Toshiba, Micron, Generic };

/** Printable vendor name. */
const char *toString(Vendor v);

/**
 * Everything the simulator needs to instantiate one package model, and
 * everything a controller needs to drive it. The fault engine and power
 * model its LUNs use are not configuration: they come from the
 * simulation's context (eq.context()).
 */
struct PackageConfig
{
    std::string partName;
    Vendor vendor = Vendor::Generic;
    Geometry geometry;
    TimingParams timing;

    /** LUNs wired per channel on the SO-DIMM (Table I context). */
    std::uint32_t lunsWiredPerChannel = 8;

    /** Non-standard capabilities. */
    bool supportsPslc = true;
    bool supportsSuspend = true;
    std::uint32_t readRetryLevels = 8;

    /** Data interface the part boots in (ONFI mandates SDR). */
    DataInterface bootInterface = DataInterface::Sdr;

    /** Max transfer rate in megatransfers/s for NV-DDR2. */
    std::uint32_t maxTransferMT = 200;

    /** Two JEDEC id bytes returned by READ ID @ 0x00. */
    std::uint8_t jedecManufacturer = 0x00;
    std::uint8_t jedecDevice = 0x00;
};

/** SK hynix preset: tR = 100 us (Table I), 8 LUNs per channel. */
PackageConfig hynixPackage();

/** Toshiba preset: tR = 78 us (Table I), 8 LUNs per channel. */
PackageConfig toshibaPackage();

/** Micron preset: tR = 53 us (Table I), 2 LUNs per channel. */
PackageConfig micronPackage();

/** Look up a preset by vendor. */
PackageConfig packageFor(Vendor v);

} // namespace babol::nand

#endif // BABOL_NAND_TIMING_HH
