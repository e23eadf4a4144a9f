#include "trace/dvst_io.h"

#include <array>
#include <cstring>

namespace dvs {

namespace {

/**
 * Reflected CRC-32 table (polynomial 0xEDB88320), constant-initialized so
 * concurrent first use from several threads needs no synchronization.
 */
constexpr std::array<std::uint32_t, 256>
make_crc_table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

} // namespace

std::uint32_t
dvst_crc32(const void *data, std::size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        crc = kCrcTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

// ----- ByteWriter ------------------------------------------------------

void
ByteWriter::u16(std::uint16_t v)
{
    u8(std::uint8_t(v));
    u8(std::uint8_t(v >> 8));
}

void
ByteWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        u8(std::uint8_t(v >> (8 * i)));
}

void
ByteWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        u8(std::uint8_t(v >> (8 * i)));
}

void
ByteWriter::varint(std::uint64_t v)
{
    while (v >= 0x80) {
        u8(std::uint8_t(v) | 0x80);
        v >>= 7;
    }
    u8(std::uint8_t(v));
}

void
ByteWriter::svarint(std::int64_t v)
{
    // Zigzag: small magnitudes of either sign stay short.
    varint((std::uint64_t(v) << 1) ^ std::uint64_t(v >> 63));
}

void
ByteWriter::f64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void
ByteWriter::str(std::string_view s)
{
    varint(s.size());
    raw(s.data(), s.size());
}

void
ByteWriter::raw(const void *data, std::size_t n)
{
    buf_.append(static_cast<const char *>(data), n);
}

// ----- ByteReader ------------------------------------------------------

void
ByteReader::fail(const std::string &why)
{
    if (ok_) {
        ok_ = false;
        error_ = why;
        p_ = end_;
    }
}

bool
ByteReader::need(std::size_t n)
{
    if (!ok_)
        return false;
    if (std::size_t(end_ - p_) < n) {
        fail("truncated payload");
        return false;
    }
    return true;
}

std::uint8_t
ByteReader::u8()
{
    if (!need(1))
        return 0;
    return std::uint8_t(*p_++);
}

std::uint16_t
ByteReader::u16()
{
    const std::uint16_t lo = u8();
    return std::uint16_t(lo | (std::uint16_t(u8()) << 8));
}

std::uint32_t
ByteReader::u32()
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(u8()) << (8 * i);
    return v;
}

std::uint64_t
ByteReader::u64()
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(u8()) << (8 * i);
    return v;
}

std::uint64_t
ByteReader::varint()
{
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        const std::uint8_t b = u8();
        if (!ok_)
            return 0;
        v |= std::uint64_t(b & 0x7F) << shift;
        if (!(b & 0x80))
            return v;
    }
    fail("varint longer than 64 bits");
    return 0;
}

std::int64_t
ByteReader::svarint()
{
    const std::uint64_t z = varint();
    return std::int64_t(z >> 1) ^ -std::int64_t(z & 1);
}

double
ByteReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
ByteReader::str()
{
    const std::uint64_t n = varint();
    if (!need(n))
        return {};
    std::string s(p_, n);
    p_ += n;
    return s;
}

std::uint64_t
ByteReader::count(std::size_t min_element_bytes)
{
    const std::uint64_t n = varint();
    if (!ok_)
        return 0;
    if (min_element_bytes < 1)
        min_element_bytes = 1;
    if (n > remaining() / min_element_bytes + 1) {
        fail("element count exceeds payload size");
        return 0;
    }
    return n;
}

// ----- section framing -------------------------------------------------

void
dvst_write_section(std::string &out, const char tag[4],
                   const std::string &payload)
{
    ByteWriter w;
    w.raw(tag, 4);
    w.u32(std::uint32_t(payload.size()));
    w.raw(payload.data(), payload.size());
    w.u32(dvst_crc32(payload.data(), payload.size()));
    out += w.bytes();
}

} // namespace dvs
