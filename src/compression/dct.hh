/**
 * @file
 * 8x8 type-II DCT used by the JPEG and zonal DCT codecs and as the
 * sparsifying basis of the compressive-sensing reconstruction, plus
 * the 8x8 tile gather/scatter all three block codecs share.
 */

#ifndef LECA_COMPRESSION_DCT_HH
#define LECA_COMPRESSION_DCT_HH

#include <array>
#include <cstddef>

namespace leca {

/**
 * JPEG zig-zag scan: kZigzag8[k] is the row-major index of the k-th
 * coefficient, ordering an 8x8 block by ascending spatial frequency —
 * the order transform codecs transmit (and zonally truncate) in.
 */
inline constexpr std::array<int, 64> kZigzag8 = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
};

/**
 * The 8x8 gather/scatter of every block codec: @p f(sample, k) on each
 * sample of tile (by, bx) of a plane @p w wide, k its index in the block.
 */
template <class T, class F>
void
forTile8(T *plane, int w, int by, int bx, F f)
{
    T *tile = plane + static_cast<std::size_t>(by) * 8 * w + bx * 8;
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
            f(tile[y * w + x], y * 8 + x);
}

/** 8x8 block DCT helper (orthonormal type-II). */
class Dct8
{
  public:
    Dct8();

    /** Forward DCT of a row-major 8x8 block. */
    void forward(const float *block, float *coeffs) const;

    /** Inverse DCT of a row-major 8x8 coefficient block. */
    void inverse(const float *coeffs, float *block) const;

    /** Basis matrix entry C[k][n] (transform row k, sample n). */
    double basis(int k, int n) const { return _c[k][n]; }

  private:
    double _c[8][8];
};

} // namespace leca

#endif // LECA_COMPRESSION_DCT_HH
