/**
 * @file
 * The three simple baselines of Sec. 5.1: the conventional 8-bit
 * sensor (CNV), block-wise spatial down-sampling with bilinear
 * upsampling (SD), and the pixel-wise low-resolution quantizer (LR).
 */

#ifndef LECA_COMPRESSION_SIMPLE_METHODS_HH
#define LECA_COMPRESSION_SIMPLE_METHODS_HH

#include "compression/method.hh"

namespace leca {

/**
 * Spatial down-sampling: (kh x kw) block averaging at 8 bits, bilinear
 * upsampling back to the input extent. The paper uses 2x2, 2x3 and 2x4
 * kernels for CR in {4, 6, 8} (Sec. 6.1).
 */
class SpatialDownsample : public CompressionMethod
{
  public:
    SpatialDownsample(int kh, int kw) : _kh(kh), _kw(kw) {}

    std::string name() const override { return "SD"; }
    double compressionRatio() const override { return _kh * _kw; }

    /** Wire: the 8-bit codes of the pooled (H/kh x W/kw) samples. */
    WireStream wireSymbols(const Tensor &batch) override;

    EncodingDomain domain() const override { return EncodingDomain::Mixed; }
    Objective objective() const override { return Objective::TaskAgnostic; }
    std::string hardwareOverhead() const override { return "Low"; }

  private:
    Tensor decode(const WireStream &ws,
                  const std::vector<int> &shape) override;

    int _kh, _kw;
};

/** Pixel-wise uniform quantization at Q_bit < 8. */
class LowResQuantizer : public CompressionMethod
{
  public:
    explicit LowResQuantizer(QBits qbits) : _qbits(qbits) {}

    std::string name() const override { return "LR"; }
    double compressionRatio() const override { return 8.0 / _qbits.bits(); }

    /** Wire: one Q_bit code per pixel (rawBits uses the real depth). */
    WireStream wireSymbols(const Tensor &batch) override;

    EncodingDomain domain() const override { return EncodingDomain::Analog; }
    Objective objective() const override { return Objective::TaskAgnostic; }
    std::string hardwareOverhead() const override { return "None"; }

  private:
    Tensor decode(const WireStream &ws,
                  const std::vector<int> &shape) override;

    QBits _qbits;
};

/** Conventional sensor: the pixel-wise quantizer at 8 bits. */
class ConventionalSensor : public LowResQuantizer
{
  public:
    ConventionalSensor() : LowResQuantizer(QBits(8.0)) {}

    std::string name() const override { return "CNV"; }
};

} // namespace leca

#endif // LECA_COMPRESSION_SIMPLE_METHODS_HH
