/**
 * @file
 * Bit-granular serialization primitives for the wire format
 * (DESIGN.md §14): an appending BitWriter and a bounds-checked
 * BitReader.
 *
 * Packing order is LSB-first: the first bit written lands in bit 0 of
 * byte 0, the ninth in bit 0 of byte 1. A reader consuming the same
 * widths in the same order recovers the values exactly; the final
 * partial byte is zero-padded by finish(). All operations are plain
 * serial integer arithmetic, so written bytes are identical on every
 * host, thread count, and ISA.
 *
 * The reader never trusts its input: reading past the end of the
 * buffer throws CheckError (never reads out of bounds), which is what
 * the container decoder relies on when fed truncated or corrupt
 * payloads.
 */

#ifndef LECA_BITSTREAM_BITIO_HH
#define LECA_BITSTREAM_BITIO_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hh"

namespace leca::bitstream {

/** Append-only LSB-first bit packer. */
class BitWriter
{
  public:
    /** Append the low @p bits of @p value (bits in [0, 32]). */
    void
    put(std::uint32_t value, int bits)
    {
        LECA_CHECK(bits >= 0 && bits <= 32, "BitWriter::put width ",
                   bits);
        LECA_CHECK(bits == 32 || (value >> bits) == 0,
                   "BitWriter::put value wider than ", bits, " bits");
        _acc |= static_cast<std::uint64_t>(value) << _nbits;
        _nbits += bits;
        while (_nbits >= 8) {
            _bytes.push_back(static_cast<std::uint8_t>(_acc & 0xFF));
            _acc >>= 8;
            _nbits -= 8;
        }
    }

    /** Zero-pad to a byte boundary and return the packed bytes. */
    std::vector<std::uint8_t>
    finish()
    {
        if (_nbits > 0) {
            _bytes.push_back(static_cast<std::uint8_t>(_acc & 0xFF));
            _acc = 0;
            _nbits = 0;
        }
        return std::move(_bytes);
    }

  private:
    std::vector<std::uint8_t> _bytes;
    std::uint64_t _acc = 0;
    int _nbits = 0;
};

/** Bounds-checked LSB-first bit reader over a borrowed buffer. */
class BitReader
{
  public:
    BitReader(const std::uint8_t *data, std::size_t size)
        : _data(data), _size(size)
    {
        LECA_CHECK(data != nullptr || size == 0,
                   "BitReader over null buffer of size ", size);
    }

    /** Read @p bits (in [0, 32]); CheckError past the end. */
    std::uint32_t
    get(int bits)
    {
        LECA_CHECK(bits >= 0 && bits <= 32, "BitReader::get width ",
                   bits);
        while (_nbits < bits) {
            LECA_CHECK(_pos < _size,
                       "corrupt bitstream: bit read past the end (byte ",
                       _pos, " of ", _size, ")");
            _acc |= static_cast<std::uint64_t>(_data[_pos++]) << _nbits;
            _nbits += 8;
        }
        const std::uint32_t value = static_cast<std::uint32_t>(
            _acc & ((bits == 32) ? 0xFFFFFFFFULL
                                 : ((1ULL << bits) - 1)));
        _acc >>= bits;
        _nbits -= bits;
        return value;
    }

  private:
    const std::uint8_t *_data;
    std::size_t _size;
    std::size_t _pos = 0;
    std::uint64_t _acc = 0;
    int _nbits = 0;
};

} // namespace leca::bitstream

#endif // LECA_BITSTREAM_BITIO_HH
