/**
 * @file
 * Quantization primitives shared by the LeCA encoder, the ADC models
 * and the baseline compression methods.
 *
 * Bit depths follow the paper's convention: Q_bit ranges over
 * {1, 1.5, 2, 3, 4, 8} where 1.5 denotes ternary (3 levels). The real
 * value enters the compression-ratio formula, Eq. (1).
 */

#ifndef LECA_NN_QUANTIZE_HH
#define LECA_NN_QUANTIZE_HH

#include <cstddef>
#include <cstdint>

namespace leca {

/** Strong type for a (possibly fractional) quantizer bit depth. */
class QBits
{
  public:
    explicit constexpr QBits(double bits) : _bits(bits) {}

    /** The real-valued bit depth (1.5 for ternary). */
    constexpr double bits() const { return _bits; }

    /** Number of representable levels: 3 for ternary, else 2^bits. */
    int levels() const;

    /** True for the 1.5-bit ternary configuration. */
    constexpr bool isTernary() const { return _bits == 1.5; }

    friend constexpr bool
    operator==(const QBits &a, const QBits &b)
    {
        return a._bits == b._bits;
    }

  private:
    double _bits;
};

/** Nearest-level code for @p x clamped into [lo, hi], in [0, levels). */
int quantizeCode(float x, float lo, float hi, int levels);

/** quantizeCode() of @p n values at @p x as bytes (levels <= 256). */
void quantizeCodes(const float *x, std::size_t n, float lo, float hi,
                   int levels, std::uint8_t *codes);

/** Dequantized value of @p code on the same uniform grid. */
float dequantizeCode(int code, float lo, float hi, int levels);

/** Round-trip quantize+dequantize of a scalar. */
float quantizeUniform(float x, float lo, float hi, int levels);

} // namespace leca

#endif // LECA_NN_QUANTIZE_HH
