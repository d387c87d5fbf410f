/**
 * @file
 * Flash package geometry and the ONFI row/column address codec.
 *
 * ONFI addresses a location with column bytes (offset within a page,
 * including the spare area) followed by row bytes encoding, from LSB to
 * MSB: page within block, plane-interleaved block number, and LUN.
 */

#ifndef BABOL_NAND_GEOMETRY_HH
#define BABOL_NAND_GEOMETRY_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/inline_vec.hh"
#include "sim/logging.hh"

namespace babol::nand {

/** Physical shape of one flash package. */
struct Geometry
{
    std::uint32_t lunsPerPackage = 1;
    std::uint32_t planesPerLun = 2;
    std::uint32_t blocksPerPlane = 1024;
    std::uint32_t pagesPerBlock = 256;
    std::uint32_t pageDataBytes = 16384;
    std::uint32_t pageSpareBytes = 1872;

    /** Out-of-band bytes per page, past the ECC spare area. The ECC
     *  parity fully consumes pageSpareBytes, so FTL metadata (the
     *  per-page `{lpn, seq, state}` record the mount scan rebuilds the
     *  map from) lives in this dedicated tail, addressed with plain
     *  column addressing and transferred raw (no ECC expansion). Wide
     *  enough for three CRC-guarded copies of the 32-byte record, so a
     *  raw bit flip in one copy cannot masquerade as a torn page. */
    std::uint32_t pageOobBytes = 96;

    /** Data + spare + OOB bytes per page (the page register size). */
    std::uint32_t
    pageTotalBytes() const
    {
        return pageDataBytes + pageSpareBytes + pageOobBytes;
    }

    /** Column where the OOB tail starts within the page register. */
    std::uint32_t
    oobColumn() const
    {
        return pageDataBytes + pageSpareBytes;
    }

    std::uint32_t
    blocksPerLun() const
    {
        return planesPerLun * blocksPerPlane;
    }

    std::uint64_t
    pagesPerLun() const
    {
        return static_cast<std::uint64_t>(blocksPerLun()) * pagesPerBlock;
    }

    std::uint64_t
    dataBytesPerLun() const
    {
        return pagesPerLun() * pageDataBytes;
    }

    /** Number of column address cycles (bytes) needed. */
    std::uint32_t colAddressBytes() const { return 2; }

    /** Number of row address cycles (bytes) needed. */
    std::uint32_t rowAddressBytes() const { return 3; }

    bool
    operator==(const Geometry &other) const = default;
};

/**
 * A decoded row address: which LUN/block/page a command targets. Planes
 * are not separate coordinates; a block's plane is blockId % planesPerLun
 * as is conventional for plane-interleaved block numbering.
 */
struct RowAddress
{
    std::uint32_t lun = 0;
    std::uint32_t block = 0; //!< block index within the LUN (all planes)
    std::uint32_t page = 0;

    bool operator==(const RowAddress &other) const = default;

    /** The plane this block belongs to. */
    std::uint32_t
    plane(const Geometry &geo) const
    {
        return block % geo.planesPerLun;
    }
};

/** Address cycles of one ONFI address phase (at most 8; held inline
 *  so building a transaction's address allocates nothing). */
using AddressCycles = InlineVec<std::uint8_t, 8>;

/** Encode a row address into ONFI row cycles (LSB first). */
AddressCycles encodeRow(const Geometry &geo, const RowAddress &row);

/** Decode ONFI row cycles into a row address; panics on bad width. */
RowAddress decodeRow(const Geometry &geo,
                     std::span<const std::uint8_t> bytes);

/** Encode a column (byte offset in page) into ONFI column cycles. */
AddressCycles encodeColumn(const Geometry &geo, std::uint32_t column);

/** Decode ONFI column cycles into a byte offset. */
std::uint32_t decodeColumn(const Geometry &geo,
                           std::span<const std::uint8_t> bytes);

/** Encode column followed by row (the 5-cycle READ/PROGRAM address). */
AddressCycles encodeColRow(const Geometry &geo, std::uint32_t column,
                           const RowAddress &row);

} // namespace babol::nand

#endif // BABOL_NAND_GEOMETRY_HH
