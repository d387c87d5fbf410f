#include "geometry.hh"

namespace babol::nand {

namespace {

/** Bits needed to represent values in [0, n-1]. */
std::uint32_t
bitsFor(std::uint64_t n)
{
    std::uint32_t bits = 0;
    std::uint64_t span = 1;
    while (span < n) {
        span <<= 1;
        ++bits;
    }
    return bits;
}

} // namespace

AddressCycles
encodeRow(const Geometry &geo, const RowAddress &row)
{
    babol_assert(row.lun < geo.lunsPerPackage, "LUN %u out of range",
                 row.lun);
    babol_assert(row.block < geo.blocksPerLun(), "block %u out of range",
                 row.block);
    babol_assert(row.page < geo.pagesPerBlock, "page %u out of range",
                 row.page);

    std::uint32_t page_bits = bitsFor(geo.pagesPerBlock);
    std::uint32_t block_bits = bitsFor(geo.blocksPerLun());

    std::uint64_t packed = row.page;
    packed |= static_cast<std::uint64_t>(row.block) << page_bits;
    packed |= static_cast<std::uint64_t>(row.lun) << (page_bits + block_bits);

    AddressCycles bytes;
    for (std::size_t i = 0; i < geo.rowAddressBytes(); ++i)
        bytes.push_back(static_cast<std::uint8_t>(packed >> (8 * i)));

    std::uint32_t total_bits =
        page_bits + block_bits + bitsFor(geo.lunsPerPackage);
    babol_assert(total_bits <= 8 * geo.rowAddressBytes(),
                 "geometry needs %u row bits but only %u cycles available",
                 total_bits, geo.rowAddressBytes());
    return bytes;
}

RowAddress
decodeRow(const Geometry &geo, std::span<const std::uint8_t> bytes)
{
    babol_assert(bytes.size() == geo.rowAddressBytes(),
                 "row address has %zu cycles, expected %u", bytes.size(),
                 geo.rowAddressBytes());

    std::uint64_t packed = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i)
        packed |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);

    std::uint32_t page_bits = bitsFor(geo.pagesPerBlock);
    std::uint32_t block_bits = bitsFor(geo.blocksPerLun());

    RowAddress row;
    row.page = static_cast<std::uint32_t>(packed & ((1ULL << page_bits) - 1));
    row.block = static_cast<std::uint32_t>((packed >> page_bits) &
                                           ((1ULL << block_bits) - 1));
    row.lun = static_cast<std::uint32_t>(packed >> (page_bits + block_bits));
    return row;
}

AddressCycles
encodeColumn(const Geometry &geo, std::uint32_t column)
{
    babol_assert(column < geo.pageTotalBytes(), "column %u out of range",
                 column);
    AddressCycles bytes;
    for (std::size_t i = 0; i < geo.colAddressBytes(); ++i)
        bytes.push_back(static_cast<std::uint8_t>(column >> (8 * i)));
    return bytes;
}

std::uint32_t
decodeColumn(const Geometry &geo, std::span<const std::uint8_t> bytes)
{
    babol_assert(bytes.size() == geo.colAddressBytes(),
                 "column address has %zu cycles, expected %u", bytes.size(),
                 geo.colAddressBytes());
    std::uint32_t column = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i)
        column |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
    return column;
}

AddressCycles
encodeColRow(const Geometry &geo, std::uint32_t column, const RowAddress &row)
{
    AddressCycles bytes = encodeColumn(geo, column);
    AddressCycles row_bytes = encodeRow(geo, row);
    bytes.append(row_bytes.begin(), row_bytes.end());
    return bytes;
}

} // namespace babol::nand
