/**
 * @file
 * 64-bit FNV-1a, the checksum of the one stored format, the 'LcBs'
 * container (bitstream/container) that frames wire byte streams and
 * checkpoints. Every stored checksum depends on these constants.
 */

#ifndef LECA_UTIL_FNV1A_HH
#define LECA_UTIL_FNV1A_HH

#include <cstddef>
#include <cstdint>

namespace leca {

/** Incremental FNV-1a over byte spans. */
class Fnv1a
{
  public:
    void
    update(const void *bytes, std::size_t count)
    {
        const auto *p = static_cast<const unsigned char *>(bytes);
        for (std::size_t i = 0; i < count; ++i) {
            _state ^= p[i];
            _state *= 0x100000001B3ULL;
        }
    }

    std::uint64_t digest() const { return _state; }

  private:
    std::uint64_t _state = 0xCBF29CE484222325ULL;
};

} // namespace leca

#endif // LECA_UTIL_FNV1A_HH
